package report

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpifault/internal/core"
)

func adaptiveWavetoyConfig(t testing.TB) core.Config {
	t.Helper()
	im, ranks := buildWavetoy(t)
	cfg := core.Config{
		Image: im, Ranks: ranks, Seed: 7,
		Regions:  []core.Region{core.RegionRegularReg, core.RegionHeap},
		Adaptive: true, TargetHalfWidth: 0.15,
		KeepExperiments: true,
	}
	if _, err := core.NormalizeAdaptive(&cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func runAdaptiveJournal(t testing.TB, path string) *core.Result {
	t.Helper()
	cfg := adaptiveWavetoyConfig(t)
	j, err := CreateJournal(path, CampaignHeader("wavetoy", cfg))
	if err != nil {
		t.Fatal(err)
	}
	cfg.OnExperiment = func(e core.Experiment) {
		if err := j.Append(e); err != nil {
			t.Errorf("append: %v", err)
		}
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAdaptiveJournalByteIdenticalAndMerges is the journal half of the
// adaptive determinism contract: a fixed (seed, config) adaptive
// campaign writes byte-identical journals across reruns, and faultmerge
// replays the planner over the recorded outcomes to reproduce the
// single-process CSV byte for byte.
func TestAdaptiveJournalByteIdenticalAndMerges(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test is slow")
	}
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.jsonl")
	pathB := filepath.Join(dir, "b.jsonl")
	res := runAdaptiveJournal(t, pathA)
	runAdaptiveJournal(t, pathB)

	a, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(pathB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("adaptive journals differ between identical (seed, config) reruns")
	}

	m, err := MergeJournals([]string{pathA})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Header.Adaptive {
		t.Error("merge did not recognize the adaptive header")
	}
	if m.Header.Confidence != core.DefaultConfidence || m.Header.Target != 0.15 {
		t.Errorf("merged contract (%v, %v) differs from the recorded one", m.Header.Confidence, m.Header.Target)
	}
	var want, got bytes.Buffer
	WriteCampaignCSV(&want, "wavetoy", res)
	WriteCampaignCSV(&got, m.Header.App, m.Result)
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("merged CSV differs from the single-process CSV:\n-- single --\n%s\n-- merged --\n%s",
			want.Bytes(), got.Bytes())
	}
}

// TestAdaptiveMergeRejectsTruncatedJournal: the merge replays the
// planner, so a journal missing experiments the planner must have
// allocated cannot pass itself off as a completed campaign.
func TestAdaptiveMergeRejectsTruncatedJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test is slow")
	}
	path := filepath.Join(t.TempDir(), "trunc.jsonl")
	runAdaptiveJournal(t, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("journal too short to truncate (%d lines)", len(lines))
	}
	trunc := append(bytes.Join(lines[:len(lines)-1], []byte("\n")), '\n')
	if err := os.WriteFile(path, trunc, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeJournals([]string{path}); err == nil {
		t.Error("merge accepted a journal missing a planner-allocated experiment")
	} else if !strings.Contains(err.Error(), "planner") && !strings.Contains(err.Error(), "completed campaign") {
		t.Errorf("unhelpful truncation error: %v", err)
	}
}
