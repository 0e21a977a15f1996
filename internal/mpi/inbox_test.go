package mpi

import (
	"runtime"
	"sync"
	"testing"
)

type nopTransport struct{}

func (nopTransport) Send(src, dst int, frame []byte) error { return nil }
func (nopTransport) Close() error                          { return nil }

// TestReleaseRecyclesDrainedInboxes: released inboxes come back empty, at
// the capacity the next world asks for, and mostly without a new channel
// buffer being allocated.
func TestReleaseRecyclesDrainedInboxes(t *testing.T) {
	const ranks, worlds = 4, 64
	cfg := Config{}.WithQueueHeadroom(3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < worlds; i++ {
		w := NewWorld(ranks, cfg)
		for r := 0; r < ranks; r++ {
			if in := w.procs[r].in; len(in) != 0 || cap(in) != cfg.QueueDepth {
				t.Fatalf("world %d rank %d: inbox holds %d of %d, want 0 of %d", i, r, len(in), cap(in), cfg.QueueDepth)
			}
		}
		w.Prefill(i%ranks, [][]byte{{1}, {2}, {3}}) // left unpulled, as after a hang verdict
		if w.QueueDepth(i%ranks) != 3 {
			t.Fatalf("world %d: prefill not queued", i)
		}
		w.Release()
	}
	runtime.ReadMemStats(&after)
	// sync.Pool may drop inboxes (always a quarter under the race
	// detector, all of them at a collection); most must still be reused.
	fresh := uint64(worlds * ranks * cfg.QueueDepth * 24)
	if got := after.TotalAlloc - before.TotalAlloc; got > fresh/2 {
		t.Errorf("%d worlds allocated %d bytes; fresh inboxes alone would be %d", worlds, got, fresh)
	}

	// A different depth never gets one of those channels.
	if in := NewWorld(1, Config{}).procs[0].in; cap(in) != 4096 {
		t.Errorf("default world got an inbox of capacity %d", cap(in))
	}
}

// TestReleaseKeepsTransportInboxes: a world on an external transport is
// never recycled — its readers may still be pushing packets.
func TestReleaseKeepsTransportInboxes(t *testing.T) {
	cfg := Config{}.WithQueueHeadroom(5) // a depth no other test uses
	w := NewWorld(2, cfg)
	w.SetTransport(nopTransport{})
	w.PushPacket(1, []byte{7})
	w.Release()
	if w.QueueDepth(1) != 1 {
		t.Fatal("Release drained the inbox of a transport world")
	}
	for i := 0; i < 8; i++ {
		if NewWorld(2, cfg).procs[1].in == w.procs[1].in {
			t.Fatal("a transport world's inbox was handed to another world")
		}
	}
}

// TestConcurrentWorldsNeverShareAnInbox: worlds created and released from
// many goroutines at once (a campaign runs jobs in parallel) each see
// only their own packets.
func TestConcurrentWorldsNeverShareAnInbox(t *testing.T) {
	cfg := Config{}.WithQueueHeadroom(7)
	var wg sync.WaitGroup
	for g := byte(0); g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := byte(0); i < 50; i++ {
				w := NewWorld(2, cfg)
				w.Prefill(1, [][]byte{{g, i}})
				runtime.Gosched()
				q := w.DrainQueue(1)
				if len(q) != 1 || q[0][0] != g || q[0][1] != i || w.QueueDepth(0) != 0 {
					t.Errorf("goroutine %d world %d: queue %v", g, i, q)
				}
				w.Release()
			}
		}()
	}
	wg.Wait()
}
