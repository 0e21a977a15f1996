package core

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mpifault/internal/apps"
)

// TestGoldenTapesReproducible is the determinism contract in one
// assertion: a job is a pure function of (image, ranks), so twenty fresh
// golden runs, on one, two and eight host threads, record the same tape on
// every rank — every packet pulled and sent, every write, at the same
// instruction — and so the same instruction counts, received bytes and
// output.  Every campaign artifact is derived from those.  The
// checkpointing arm holds a golden run that snapshots itself to the same:
// parking ranks is scheduling too, so its tapes and where each snapshot
// cut them repeat as exactly.
func TestGoldenTapesReproducible(t *testing.T) {
	t.Run("plain", func(t *testing.T) { goldenTapesReproducible(t, 0) })
	t.Run("checkpointing", func(t *testing.T) { goldenTapesReproducible(t, DefaultCheckpointInterval) })
}

// cutShape is what of a snapshot must repeat: per rank, its clock, its
// tape position and how many packets were in flight to it.
func cutShape(g *Golden) [][][3]int {
	var shape [][][3]int
	for _, s := range g.Result.Snapshots {
		cut := make([][3]int, s.Size)
		for r := range cut {
			cut[r] = [3]int{int(s.RankInstrs(r)), s.Ranks[r].TapePos, len(s.Queues[r])}
		}
		shape = append(shape, cut)
	}
	return shape
}

func goldenTapesReproducible(t *testing.T, interval uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		app   string
		ranks int
		scale int32
	}{{"wavetoy", 8, 0}, {"minimd", 8, 0}, {"minicam", 8, 0}, {"minicam", 16, 16}} {
		a, err := apps.Get(tc.app)
		if err != nil {
			t.Fatal(err)
		}
		build := a.Default
		build.Ranks = tc.ranks
		if tc.scale > 0 {
			build.Scale = tc.scale
		}
		im, err := a.Build(build)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Image: im, Ranks: tc.ranks,
			CheckpointInterval: interval}
		var first *Golden
		for i := 0; i < 20; i++ {
			procs := []int{1, 2, 8}[i%3]
			runtime.GOMAXPROCS(procs)
			g, err := runGolden(&cfg, defaultMPI(), 30*time.Second, nil)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(g.Result.Snapshots); (n > 0) != (interval > 0) {
				t.Fatalf("%s/%d: %d snapshots at interval %d", tc.app, tc.ranks, n, interval)
			}
			if first == nil {
				first = g
				continue
			}
			if !reflect.DeepEqual(g.Instrs, first.Instrs) || !reflect.DeepEqual(g.RecvBytes, first.RecvBytes) ||
				!bytes.Equal(g.Output, first.Output) {
				t.Fatalf("%s/%d: run %d at GOMAXPROCS %d: instructions %v, received %v, %d output bytes; run 0: %v, %v, %d",
					tc.app, tc.ranks, i, procs, g.Instrs, g.RecvBytes, len(g.Output), first.Instrs, first.RecvBytes, len(first.Output))
			}
			for r := range g.tapes {
				if reflect.DeepEqual(g.tapes[r], first.tapes[r]) {
					continue
				}
				at := 0
				for at < len(g.tapes[r]) && at < len(first.tapes[r]) && reflect.DeepEqual(g.tapes[r][at], first.tapes[r][at]) {
					at++
				}
				t.Fatalf("%s/%d: run %d at GOMAXPROCS %d: rank %d's tape (%d events) leaves run 0's (%d events) at event %d",
					tc.app, tc.ranks, i, procs, r, len(g.tapes[r]), len(first.tapes[r]), at)
			}
			if got, want := cutShape(g), cutShape(first); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%d: run %d at GOMAXPROCS %d: snapshots cut the run at\n%v\nrun 0's at\n%v",
					tc.app, tc.ranks, i, procs, got, want)
			}
		}
	}
}
