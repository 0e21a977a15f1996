package core_test

// Campaign-level invariants of trace-diff localization, enforced end to
// end on all three guest applications: observers only observe (fixed-seed
// output is byte-identical with TraceDiff and Forensics on or off), their
// records do not depend on where an experiment started, the golden trace
// identity is reproducible, and the first-divergence diff actually
// localizes the paper's visible outcomes — Incorrect and Hang experiments
// must overwhelmingly carry a divergence naming a rank.

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"mpifault/internal/classify"
	"mpifault/internal/core"
	"mpifault/internal/image"
	"mpifault/internal/mpi"
	"mpifault/internal/msgtrace"
	"mpifault/internal/report"
)

// traceArtifacts runs one fixed-seed campaign over all eight regions and
// returns its CSV plus the kept experiments.
func traceArtifacts(t *testing.T, name string, im *image.Image, ranks, n int, observed bool, interval uint64) (string, *core.Result) {
	t.Helper()
	cfg := core.Config{
		Image: im, Ranks: ranks, Injections: n, Seed: 4242,
		Parallelism:        2,
		KeepExperiments:    true,
		TraceDiff:          observed,
		Forensics:          observed,
		CheckpointInterval: interval,
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	report.WriteCampaignCSV(&csv, name, res)
	return csv.String(), res
}

// TestTraceDiffCampaign runs the campaign-level gates per guest app on
// three fixed-seed campaigns, restored from checkpoints unless noted:
//
//   - observer effect: the campaign with and without TraceDiff and
//     Forensics must produce the identical CSV, and every experiment
//     must reach the identical outcome, message faults included;
//   - one execution path: the observed campaign's records — flight record
//     and divergence — must be the ones the same campaign makes with every
//     experiment starting at t=0;
//   - localization acceptance: at least 80% of the observed campaign's
//     Incorrect and Hang outcomes must carry a divergence record naming
//     an in-range rank.
func TestTraceDiffCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three campaigns per guest app")
	}
	for _, name := range []string{"wavetoy", "minimd", "minicam"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			im, ranks := buildApp(t, name)
			refCSV, ref := traceArtifacts(t, name, im, ranks, 6, false, core.DefaultCheckpointInterval)
			gotCSV, got := traceArtifacts(t, name, im, ranks, 6, true, core.DefaultCheckpointInterval)
			_, scratch := traceArtifacts(t, name, im, ranks, 6, true, 0)
			if gotCSV != refCSV {
				t.Errorf("CSV differs with observers on:\n--- off ---\n%s\n--- on ---\n%s", refCSV, gotCSV)
			}
			if len(ref.Experiments) != len(got.Experiments) {
				t.Fatalf("experiment counts differ: %d vs %d", len(ref.Experiments), len(got.Experiments))
			}
			for i := range ref.Experiments {
				p, r := ref.Experiments[i], got.Experiments[i]
				if !report.SameOutcome(p, r) {
					t.Errorf("experiment %s outcome changed under observers: %+v vs %+v", p.ID(), p, r)
				}
				if s := scratch.Experiments[i]; !reflect.DeepEqual(r, s) {
					t.Errorf("experiment %s restored:\n%+v %+v\nfrom t=0:\n%+v %+v", p.ID(), r, r.Forensics, s, s.Forensics)
				}
			}
			if msgtrace.Messages(got.Golden.Result.Tapes) == 0 {
				t.Error("the golden tapes hold no message")
			}

			visible, localized := 0, 0
			for i := range got.Experiments {
				e := &got.Experiments[i]
				switch e.Outcome {
				case classify.Incorrect, classify.Hang:
				default:
					continue
				}
				visible++
				if d := e.Divergence(); d != nil {
					localized++
					if d.Rank < 0 || d.Rank >= ranks {
						t.Errorf("%s: divergence implicates rank %d of %d", e.ID(), d.Rank, ranks)
					}
					if d.Kind == "" {
						t.Errorf("%s: divergence has no kind", e.ID())
					}
				}
			}
			if visible == 0 {
				t.Logf("%s: no Incorrect/Hang outcomes at this seed; localization gate vacuous", name)
			} else if 100*localized < 80*visible {
				t.Errorf("%s: only %d/%d Incorrect/Hang outcomes localized (< 80%%)",
					name, localized, visible)
			}
		})
	}
}

// TestGoldenTraceReproducible pins the golden trace identity: two
// independent golden runs of one app must hash their tapes alike — the
// property the CI shard/coordinator gates build on.
func TestGoldenTraceReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two golden executions")
	}
	im, ranks := buildApp(t, "wavetoy")
	run := func() uint64 {
		g, err := core.RunGolden(im, ranks, mpi.Config{}, 60*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return msgtrace.Hash(g.Result.Tapes)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("golden trace hash differs across runs: %016x vs %016x", a, b)
	}
}

// TestGoldenReuseServesObservers: a Golden from a plain campaign serves a
// TraceDiff + Forensics campaign exactly as the one that campaign would
// run itself — there is nothing an observer needs recorded beyond the
// tapes every golden run keeps.
func TestGoldenReuseServesObservers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three campaigns")
	}
	im, ranks := buildApp(t, "minimd")
	cfg := core.Config{
		Image: im, Ranks: ranks, Injections: 6, Seed: 1, KeepExperiments: true,
		CheckpointInterval: core.DefaultCheckpointInterval,
	}
	plain, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TraceDiff, cfg.Forensics = true, true
	fresh, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Golden = plain.Golden
	reused, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	report.WriteCampaignCSV(&a, "minimd", fresh)
	report.WriteCampaignCSV(&b, "minimd", reused)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("CSV differs:\n--- fresh golden ---\n%s--- reused ---\n%s", a.Bytes(), b.Bytes())
	}
	if !reflect.DeepEqual(fresh.Experiments, reused.Experiments) {
		t.Error("a reused plain golden changed the observed campaign's experiments")
	}
	forensics := 0
	for _, e := range reused.Experiments {
		if e.Forensics != nil {
			forensics++
		}
	}
	if forensics == 0 {
		t.Error("the observed campaign recorded no forensics")
	}
}
