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
// checkpointing arm holds golden runs that snapshot themselves, of the
// three applications at 8 and 16 ranks, to the same, and to more: taking
// snapshots adds no scheduling point, so their tapes and need points are
// the plain run's byte for byte, and where each rank's snapshots stand
// repeats as exactly.
func TestGoldenTapesReproducible(t *testing.T) {
	t.Run("plain", func(t *testing.T) { goldenTapesReproducible(t, 0) })
	t.Run("checkpointing", func(t *testing.T) { goldenTapesReproducible(t, DefaultCheckpointInterval) })
}

// snapshotShape is what of the snapshots must repeat: per rank, each
// one's clock and tape position.
func snapshotShape(g *Golden) [][][2]int {
	shape := make([][][2]int, len(g.Result.Snapshots))
	for r, snaps := range g.Result.Snapshots {
		for k := range snaps {
			shape[r] = append(shape[r], [2]int{int(snaps[k].Instrs()), snaps[k].TapePos})
		}
	}
	return shape
}

func goldenTapesReproducible(t *testing.T, interval uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cases := []struct {
		app   string
		ranks int
		scale int32
	}{{"wavetoy", 8, 0}, {"minimd", 8, 0}, {"minicam", 8, 0}, {"minicam", 16, 16}}
	if interval > 0 {
		cases = append(cases, []struct {
			app   string
			ranks int
			scale int32
		}{{"wavetoy", 16, 0}, {"minimd", 16, 48}}...)
	}
	for _, tc := range cases {
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
		// The reference is a plain run: snapshotting ones must equal it.
		cfg := Config{Image: im, Ranks: tc.ranks}
		ref, err := runGolden(&cfg, defaultMPI(), 30*time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg.CheckpointInterval = interval
		var first *Golden
		for i := 0; i < 20; i++ {
			procs := []int{1, 2, 8}[i%3]
			runtime.GOMAXPROCS(procs)
			g, err := runGolden(&cfg, defaultMPI(), 30*time.Second, nil)
			if err != nil {
				t.Fatal(err)
			}
			if n := snapshotCount(g.Result.Snapshots); (n > 0) != (interval > 0) {
				t.Fatalf("%s/%d: %d snapshots at interval %d", tc.app, tc.ranks, n, interval)
			}
			if !reflect.DeepEqual(g.Instrs, ref.Instrs) || !reflect.DeepEqual(g.RecvBytes, ref.RecvBytes) ||
				!bytes.Equal(g.Output, ref.Output) {
				t.Fatalf("%s/%d: run %d at GOMAXPROCS %d: instructions %v, received %v, %d output bytes; the plain run: %v, %v, %d",
					tc.app, tc.ranks, i, procs, g.Instrs, g.RecvBytes, len(g.Output), ref.Instrs, ref.RecvBytes, len(ref.Output))
			}
			for r := range g.tapes {
				if reflect.DeepEqual(g.tapes[r], ref.tapes[r]) {
					continue
				}
				at := 0
				for at < len(g.tapes[r]) && at < len(ref.tapes[r]) && reflect.DeepEqual(g.tapes[r][at], ref.tapes[r][at]) {
					at++
				}
				t.Fatalf("%s/%d: run %d at GOMAXPROCS %d: rank %d's tape (%d events) leaves the plain run's (%d events) at event %d",
					tc.app, tc.ranks, i, procs, r, len(g.tapes[r]), len(ref.tapes[r]), at)
			}
			if !reflect.DeepEqual(g.Result.Needs, ref.Result.Needs) {
				t.Fatalf("%s/%d: run %d at GOMAXPROCS %d: the need points differ from the plain run's", tc.app, tc.ranks, i, procs)
			}
			if first == nil {
				first = g
			} else if got, want := snapshotShape(g), snapshotShape(first); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%d: run %d at GOMAXPROCS %d: snapshots at\n%v\nrun 0's at\n%v",
					tc.app, tc.ranks, i, procs, got, want)
			}
		}
	}
}
