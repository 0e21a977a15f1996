package core_test

// The checkpointing invariant, enforced end to end: a fixed-seed
// campaign must produce byte-identical artifacts — the campaign CSV and
// the JSONL journal — whether experiments start from golden-run
// checkpoints or from t=0.  Checkpointing is a pure wall-clock
// optimization; any observable difference is a bug.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mpifault/internal/apps"
	"mpifault/internal/core"
	"mpifault/internal/image"
	"mpifault/internal/report"
)

func buildWavetoy(t testing.TB) (*image.Image, int) {
	t.Helper()
	a, err := apps.Get("wavetoy")
	if err != nil {
		t.Fatal(err)
	}
	im, err := a.Build(a.Default)
	if err != nil {
		t.Fatal(err)
	}
	return im, a.Default.Ranks
}

// runArtifacts runs a fixed campaign at the given checkpoint interval
// and returns the CSV report, the raw journal bytes, and the result.
func runArtifacts(t *testing.T, im *image.Image, ranks int, interval uint64) (string, []byte, *core.Result) {
	t.Helper()
	cfg := core.Config{
		Image: im, Ranks: ranks, Injections: 6, Seed: 1234,
		Parallelism:        2,
		KeepExperiments:    true,
		CheckpointInterval: interval,
	}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := report.CreateJournal(path, report.CampaignHeader("wavetoy", cfg))
	if err != nil {
		t.Fatal(err)
	}
	cfg.OnExperiment = func(e core.Experiment) {
		if err := j.Append(e); err != nil {
			t.Errorf("journal append: %v", err)
		}
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	report.WriteCampaignCSV(&csv, "wavetoy", res)
	return csv.String(), raw, res
}

func TestCheckpointDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test is slow")
	}
	im, ranks := buildWavetoy(t)

	refCSV, refJournal, ref := runArtifacts(t, im, ranks, 0)
	if ref.Checkpoints != nil {
		t.Fatalf("checkpointing off, but Result.Checkpoints = %+v", ref.Checkpoints)
	}

	// A small interval exercises real restores; a huge one lands past the
	// end of the longest rank, so the golden run takes no snapshot and
	// every experiment starts at t=0 — the artifacts must not notice
	// either way.
	for _, tc := range []struct {
		name     string
		interval uint64
	}{
		{"small", 50_000},
		{"default", core.DefaultCheckpointInterval},
		{"huge", 1 << 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			csv, journal, res := runArtifacts(t, im, ranks, tc.interval)
			if csv != refCSV {
				t.Errorf("CSV differs from checkpointing-off run:\n--- off ---\n%s\n--- interval=%d ---\n%s",
					refCSV, tc.interval, csv)
			}
			if !bytes.Equal(journal, refJournal) {
				t.Errorf("journal differs from checkpointing-off run:\n--- off ---\n%s\n--- interval=%d ---\n%s",
					refJournal, tc.interval, journal)
			}
			st := res.Checkpoints
			if st == nil {
				t.Fatal("checkpointing on, but Result.Checkpoints is nil")
			}
			if tc.interval == 1<<40 {
				if st.Taken != 0 || st.Hits != 0 || st.Misses == 0 {
					t.Errorf("interval past program end should count 0 checkpoints and only misses, got %+v", st)
				}
				return
			}
			if st.Taken == 0 {
				t.Fatalf("expected live checkpoints, got %+v", st)
			}
			if st.Hits == 0 {
				t.Errorf("no experiment restored from a checkpoint: %+v", st)
			}
			if st.InstrsSkipped == 0 {
				t.Errorf("restores skipped no instructions: %+v", st)
			}
		})
	}
}
