package core_test

// The superblock tier's campaign-level invariant, enforced end to end on
// all three guest applications: a fixed-seed campaign — register, memory
// and message faults across every region — must produce byte-identical
// artifacts (campaign CSV and JSONL journal) with compiled superblock
// execution on, off — every machine, the golden run's included, on the
// per-instruction interpreter through core.RunBuilt — and under
// checkpointed restore with superblocks on.  Like checkpointing, the tier
// is a pure wall-clock optimization; any observable difference is a bug.
// The vm-level differential suite and FuzzSuperblockLockstep cover it
// instruction by instruction, and the third execution mode
// (DisablePredecode, full byte-decode) too.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mpifault/internal/apps"
	"mpifault/internal/core"
	"mpifault/internal/image"
	"mpifault/internal/report"
	"mpifault/internal/vm"
)

func buildApp(t testing.TB, name string) (*image.Image, int) {
	t.Helper()
	a, err := apps.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	im, err := a.Build(a.Default)
	if err != nil {
		t.Fatal(err)
	}
	return im, a.Default.Ranks
}

// sbArtifacts runs one fixed-seed campaign and returns its CSV report, raw
// journal bytes and its golden run's output and per-rank instruction
// counts.
func sbArtifacts(t *testing.T, name string, im *image.Image, ranks int, noSB bool, interval uint64) (string, []byte, string) {
	t.Helper()
	cfg := core.Config{
		Image: im, Ranks: ranks, Injections: 6, Seed: 4242,
		Parallelism:        2,
		KeepExperiments:    true,
		CheckpointInterval: interval,
	}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := report.CreateJournal(path, report.CampaignHeader(name, cfg))
	if err != nil {
		t.Fatal(err)
	}
	cfg.OnExperiment = func(e core.Experiment) {
		if err := j.Append(e); err != nil {
			t.Errorf("journal append: %v", err)
		}
	}
	var built func(*vm.Machine)
	if noSB {
		built = (*vm.Machine).DisableSuperblocks
	}
	res, err := core.RunBuilt(cfg, built)
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
	report.WriteCampaignCSV(&csv, name, res)
	return csv.String(), raw, fmt.Sprintf("%q %v", res.Golden.Output, res.Golden.Instrs)
}

func TestSuperblockCampaignDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three campaigns per guest app")
	}
	for _, name := range []string{"wavetoy", "minimd", "minicam"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			im, ranks := buildApp(t, name)
			refCSV, refJournal, refGolden := sbArtifacts(t, name, im, ranks, false, 0)
			for _, tc := range []struct {
				label    string
				noSB     bool
				interval uint64
			}{
				{"superblocks-off", true, 0},
				{"checkpointed", false, core.DefaultCheckpointInterval},
			} {
				csv, journal, golden := sbArtifacts(t, name, im, ranks, tc.noSB, tc.interval)
				if golden != refGolden {
					t.Errorf("%s: golden run differs from superblocks-on run", tc.label)
				}
				if csv != refCSV {
					t.Errorf("%s: CSV differs from superblocks-on run:\n--- on ---\n%s\n--- %s ---\n%s",
						tc.label, refCSV, tc.label, csv)
				}
				if !bytes.Equal(journal, refJournal) {
					t.Errorf("%s: journal differs from superblocks-on run", tc.label)
				}
			}
		})
	}
}
