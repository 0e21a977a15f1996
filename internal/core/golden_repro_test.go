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
// output.  Every campaign artifact is derived from those.
func TestGoldenTapesReproducible(t *testing.T) {
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
		var first *Golden
		for i := 0; i < 20; i++ {
			procs := []int{1, 2, 8}[i%3]
			runtime.GOMAXPROCS(procs)
			g, err := RunGolden(im, tc.ranks, defaultMPI(), 30*time.Second)
			if err != nil {
				t.Fatal(err)
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
		}
	}
}
