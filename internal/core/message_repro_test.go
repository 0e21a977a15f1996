package core_test

import (
	"bytes"
	"runtime"
	"testing"

	"mpifault/internal/apps"
	"mpifault/internal/core"
	"mpifault/internal/report"
)

// TestMessageTargetsReproducible: a message experiment names a byte of the
// job, not of one run of it.  Five campaigns per configuration, each from
// its own golden run and checkpoint capture, on one, two and eight host
// threads, must inject into the same rank at the same trigger, flip
// the same byte of the same packet, and print the same CSV.
func TestMessageTargetsReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign differential is slow")
	}
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
		var first *core.Result
		var firstCSV []byte
		for i, procs := range []int{1, 2, 8, 1, 2} {
			runtime.GOMAXPROCS(procs)
			res, err := core.Run(core.Config{
				Image: im, Ranks: tc.ranks, Injections: 48, Seed: 11, Parallelism: 2,
				Regions: []core.Region{core.RegionMessage}, KeepExperiments: true,
				CheckpointInterval: core.DefaultCheckpointInterval,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Unclassified != 0 {
				t.Errorf("%s/%d run %d: %d experiments applied no fault", tc.app, tc.ranks, i, res.Unclassified)
			}
			var csv bytes.Buffer
			report.WriteCampaignCSV(&csv, tc.app, res)
			if first == nil {
				first, firstCSV = res, csv.Bytes()
				continue
			}
			for j, e := range res.Experiments {
				f := first.Experiments[j]
				if e.Rank != f.Rank || e.Trigger != f.Trigger || e.Desc != f.Desc {
					t.Errorf("%s/%d %s: run %d at GOMAXPROCS %d hit rank %d trigger %d %q, run 0 rank %d trigger %d %q",
						tc.app, tc.ranks, e.ID(), i, procs, e.Rank, e.Trigger, e.Desc, f.Rank, f.Trigger, f.Desc)
				}
			}
			if !bytes.Equal(csv.Bytes(), firstCSV) {
				t.Errorf("%s/%d: run %d at GOMAXPROCS %d:\n%s--- run 0 ---\n%s", tc.app, tc.ranks, i, procs, csv.Bytes(), firstCSV)
			}
		}
	}
}
