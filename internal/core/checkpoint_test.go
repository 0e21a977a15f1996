package core

import (
	"reflect"
	"testing"

	"mpifault/internal/mpi"
)

func TestCloseCutRaisesSenders(t *testing.T) {
	// Rank 1 consumed at instruction 10 a message rank 0 sent at 80: any
	// cut containing the receive must also contain the send.
	events := []mpi.Event{{Src: 0, Dst: 1, SrcInstr: 80, DstInstr: 10}}
	cut := []uint64{30, 30}
	closeCut(cut, events)
	if !reflect.DeepEqual(cut, []uint64{80, 30}) {
		t.Errorf("cut = %v, want [80 30]", cut)
	}

	// Transitive: pulling rank 0 up to 80 captures a receive on rank 0 at
	// 70 whose send on rank 2 happened at 95 — closure must chase it.
	events = append(events, mpi.Event{Src: 2, Dst: 0, SrcInstr: 95, DstInstr: 70})
	cut = []uint64{30, 30, 40}
	closeCut(cut, events)
	if !reflect.DeepEqual(cut, []uint64{80, 30, 95}) {
		t.Errorf("transitive cut = %v, want [80 30 95]", cut)
	}

	// A send already inside the cut changes nothing.
	cut = []uint64{90, 30, 100}
	closeCut(cut, events)
	if !reflect.DeepEqual(cut, []uint64{90, 30, 100}) {
		t.Errorf("closed cut mutated: %v", cut)
	}
}

func TestComputeCutsSpacingAndTermination(t *testing.T) {
	instrs := []uint64{100, 50}
	cuts := computeCuts(instrs, nil, 30, 0)
	want := [][]uint64{{30, 30}, {60, 60}, {90, 90}}
	if !reflect.DeepEqual(cuts, want) {
		t.Errorf("cuts = %v, want %v", cuts, want)
	}

	// maxCkpts caps the count.
	if got := computeCuts(instrs, nil, 30, 2); len(got) != 2 {
		t.Errorf("capped cuts = %v", got)
	}

	// Interval past the longest rank yields no cuts (nothing to skip).
	if got := computeCuts(instrs, nil, 1000, 0); got != nil {
		t.Errorf("expected no cuts, got %v", got)
	}
	if got := computeCuts(nil, nil, 10, 0); got != nil {
		t.Errorf("no ranks: %v", got)
	}
	if got := computeCuts(instrs, nil, 0, 0); got != nil {
		t.Errorf("interval 0: %v", got)
	}
}

func TestComputeCutsAdaptiveSpread(t *testing.T) {
	// With a cap, a tiny interval is widened so the checkpoints cover the
	// whole run instead of bunching at its start.
	cuts := computeCuts([]uint64{1000}, nil, 1, 3)
	want := [][]uint64{{250}, {500}, {750}}
	if !reflect.DeepEqual(cuts, want) {
		t.Errorf("cuts = %v, want %v", cuts, want)
	}
}

func TestComputeCutsMonotoneUnderClosure(t *testing.T) {
	// The closure at cut 1 drags rank 0 up to 80; later cuts must never
	// move any rank backwards.
	events := []mpi.Event{{Src: 0, Dst: 1, SrcInstr: 80, DstInstr: 10}}
	cuts := computeCuts([]uint64{200, 200}, events, 30, 0)
	if len(cuts) == 0 {
		t.Fatal("no cuts")
	}
	prev := make([]uint64, 2)
	for _, cut := range cuts {
		for r := range cut {
			if cut[r] < prev[r] {
				t.Fatalf("rank %d moved backwards: %v", r, cuts)
			}
		}
		// Every cut must itself be consistent.
		chk := append([]uint64(nil), cut...)
		closeCut(chk, events)
		if !reflect.DeepEqual(chk, cut) {
			t.Fatalf("cut %v not closed (closure gives %v)", cut, chk)
		}
		prev = cut
	}
	if cuts[0][0] != 80 {
		t.Errorf("first cut = %v, want sender pulled to 80", cuts[0])
	}
}

// TestCaptureHeadroomCoversParkedReceiver pins the capture pass's queue
// bound: a receiver parked at a cut for the whole run is sent at most
// the packets the golden run delivered to it, so that many slots on top
// of the configured depth mean no sender ever blocks on it.
func TestCaptureHeadroomCoversParkedReceiver(t *testing.T) {
	const n = 7
	var events []mpi.Event
	for i := 0; i < n; i++ {
		events = append(events, mpi.Event{Src: 2 * (i % 2), Dst: 1, SrcInstr: uint64(10 * i), DstInstr: uint64(10*i + 5)})
	}
	events = append(events, mpi.Event{Src: 1, Dst: 0}, mpi.Event{Src: 1, Dst: 2}, mpi.Event{Src: 0, Dst: 2})
	h := captureHeadroom(3, events)
	if h < n {
		t.Errorf("headroom %d for a rank that is sent %d packets", h, n)
	}
	if depth := (mpi.Config{QueueDepth: 1}).WithQueueHeadroom(h).QueueDepth; depth < n+1 {
		t.Errorf("capture-pass queue depth %d, want > %d", depth, n)
	}
	if got := captureHeadroom(2, nil); got != 0 {
		t.Errorf("headroom %d for a run without messages, want 0", got)
	}
}
