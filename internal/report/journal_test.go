package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mpifault/internal/apps"
	"mpifault/internal/classify"
	"mpifault/internal/core"
	"mpifault/internal/image"
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

func syntheticHeader(injections int) JournalHeader {
	return CampaignHeader("wavetoy", core.Config{
		Injections: injections,
		Regions:    []core.Region{core.RegionRegularReg},
		Seed:       9,
		Ranks:      2,
	})
}

func syntheticExperiment(index int, outcome classify.Outcome) core.Experiment {
	return core.Experiment{
		Region:  core.RegionRegularReg,
		Index:   index,
		Rank:    index % 2,
		Trigger: uint64(100 + index),
		Desc:    "eax bit 3",
		Outcome: outcome,
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	h := syntheticHeader(3)
	j, err := CreateJournal(path, h)
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Experiment{
		syntheticExperiment(0, classify.Crash),
		syntheticExperiment(1, classify.Correct),
		syntheticExperiment(2, classify.Hang),
	}
	for _, e := range want {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, completed, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.SameCampaign(h) || got.Shard != h.Shard || got.NumShards != h.NumShards {
		t.Fatalf("header round trip: got %+v want %+v", got, h)
	}
	if len(completed) != len(want) {
		t.Fatalf("read %d entries, wrote %d", len(completed), len(want))
	}
	for _, e := range want {
		if completed[e.ID()] != e {
			t.Errorf("entry %s: got %+v want %+v", e.ID(), completed[e.ID()], e)
		}
	}

	// A plain journal as the previous version wrote it: register lines
	// carry "candidates":320.  It parses and re-marshals byte for byte.
	parent := `{"format":"mpifault-campaign-journal","version":1,"app":"wavetoy","seed":5,"injections":3,"regions":["reg","heap"],"ranks":8,"shard":0,"num_shards":1}
{"id":"reg/0","rank":1,"trigger":82663,"desc":"r5 bit 18","outcome":"Correct","candidates":320}
{"id":"reg/1","rank":0,"trigger":69193,"desc":"r2 bit 2","outcome":"Incorrect","candidates":320}
{"id":"reg/2","rank":4,"trigger":75673,"desc":"r2 bit 21","outcome":"Incorrect","candidates":320}
{"id":"heap/0","rank":7,"trigger":12418,"desc":"heap 0x080533cc bit 6","outcome":"Correct"}
{"id":"heap/1","rank":1,"trigger":47394,"desc":"heap 0x08054076 bit 2","outcome":"Correct"}
{"id":"heap/2","rank":3,"trigger":106487,"desc":"heap 0x08054722 bit 2","outcome":"Correct"}
`
	ph, exps, valid, err := ParseSegment([]byte(parent))
	if err != nil || valid != len(parent) || len(exps) != 6 {
		t.Fatalf("parent journal: %d entries, %d of %d bytes valid, %v", len(exps), valid, len(parent), err)
	}
	line, err := json.Marshal(ph)
	if err != nil {
		t.Fatal(err)
	}
	again := string(line) + "\n"
	for _, id := range []string{"reg/0", "reg/1", "reg/2", "heap/0", "heap/1", "heap/2"} {
		if line, err = json.Marshal(EntryFromExperiment(exps[id])); err != nil {
			t.Fatal(err)
		}
		again += string(line) + "\n"
	}
	if again != parent {
		t.Errorf("parent journal re-marshals differently:\n%s\nwant\n%s", again, parent)
	}
}

// TestParseSegmentRefusesEquivalence: a journal from a version that ran
// equivalence-directed register sampling is refused by name, not merged
// or resumed as a uniform sample.
func TestParseSegmentRefusesEquivalence(t *testing.T) {
	seg := `{"format":"mpifault-campaign-journal","version":1,"app":"wavetoy","seed":5,"injections":2,"regions":["reg"],"ranks":8,"shard":0,"num_shards":1,"equivalence":"prune"}
{"id":"reg/0","rank":1,"trigger":82663,"desc":"r1 bit 17 [equiv]","outcome":"Incorrect","candidates":192,"class_id":3621665325898578467,"benign_bits":128}
`
	_, exps, valid, err := ParseSegment([]byte(seg))
	if err == nil || exps != nil || valid != 0 {
		t.Fatalf("parsed %d entries, %d bytes valid, err %v; want a refusal", len(exps), valid, err)
	}
	if !strings.Contains(err.Error(), `"prune"`) || !strings.Contains(err.Error(), "no longer") {
		t.Errorf("error %q does not name the policy and say it is no longer run", err)
	}
	path := filepath.Join(t.TempDir(), "prune.jsonl")
	if err := os.WriteFile(path, []byte(seg), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeJournals([]string{path}); err == nil {
		t.Error("merge accepted an equivalence journal")
	}
	if _, _, err := ResumeJournal(path, JournalHeader{}); err == nil {
		t.Error("resume accepted an equivalence journal")
	}
}

func TestResumeTruncatedJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	h := syntheticHeader(4)
	j, err := CreateJournal(path, h)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(syntheticExperiment(i, classify.Crash)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// A SIGKILL mid-append leaves a partial trailing line; the resume
	// must drop exactly that line and stay appendable.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, completed, err := ResumeJournal(path, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(completed) != 2 {
		t.Fatalf("resume found %d complete entries, want 2 (truncated third dropped)", len(completed))
	}
	for i := 2; i < 4; i++ {
		if err := j2.Append(syntheticExperiment(i, classify.Incorrect)); err != nil {
			t.Fatal(err)
		}
	}
	j2.Close()

	_, final, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != 4 {
		t.Fatalf("after repair+append journal has %d entries, want 4", len(final))
	}
	if final["reg/2"].Outcome != classify.Incorrect {
		t.Errorf("re-run entry reg/2 outcome = %v, want the new Incorrect", final["reg/2"].Outcome)
	}
}

func TestResumeRejectsDifferentCampaign(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := CreateJournal(path, syntheticHeader(4))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	other := syntheticHeader(4)
	other.Seed++
	if _, _, err := ResumeJournal(path, other); err == nil {
		t.Fatal("resume accepted a journal from a different campaign seed")
	}
}

func TestMergeValidation(t *testing.T) {
	dir := t.TempDir()
	h := syntheticHeader(2)
	write := func(name string, hdr JournalHeader, exps ...core.Experiment) string {
		path := filepath.Join(dir, name)
		j, err := CreateJournal(path, hdr)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range exps {
			if err := j.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		return path
	}
	a := write("a.jsonl", h, syntheticExperiment(0, classify.Crash))
	b := write("b.jsonl", h, syntheticExperiment(1, classify.Correct))

	if m, err := MergeJournals([]string{a, b}); err != nil {
		t.Fatalf("complete merge failed: %v", err)
	} else if len(m.Result.Experiments) != 2 {
		t.Fatalf("merged %d experiments, want 2", len(m.Result.Experiments))
	}

	if _, err := MergeJournals([]string{a}); err == nil {
		t.Error("incomplete merge (missing reg/1) accepted")
	}

	conflict := write("c.jsonl", h,
		syntheticExperiment(0, classify.Hang), syntheticExperiment(1, classify.Correct))
	if _, err := MergeJournals([]string{a, conflict}); err == nil {
		t.Error("conflicting duplicate of reg/0 accepted")
	}

	otherH := h
	otherH.Seed++
	otherSeed := write("d.jsonl", otherH, syntheticExperiment(1, classify.Correct))
	if _, err := MergeJournals([]string{a, otherSeed}); err == nil {
		t.Error("merge across different campaign seeds accepted")
	}
}

// TestAssemble: the one place a result set is accepted as a finished
// campaign — a header's Contract().Assemble — with the error texts
// faultmerge and the coordinator report.
func TestAssemble(t *testing.T) {
	set := func(n int, outcomes ...classify.Outcome) map[string]core.Experiment {
		byID := make(map[string]core.Experiment, n)
		for i := 0; i < n; i++ {
			e := syntheticExperiment(i, outcomes[i%len(outcomes)])
			byID[e.ID()] = e
		}
		return byID
	}
	without := func(byID map[string]core.Experiment, id string) map[string]core.Experiment {
		delete(byID, id)
		return byID
	}
	fixed := syntheticHeader(4)
	// With no prior the pilot is a full 96-experiment round, which closes
	// an all-Correct stratum at d=4.9 %.
	adaptive := CampaignHeader("wavetoy", core.Config{
		Regions: []core.Region{core.RegionRegularReg}, Seed: 9, Ranks: 2, Injections: 400,
		Adaptive: true, Confidence: 0.95, TargetHalfWidth: 0.049, RoundSize: 96,
	})
	for _, tc := range []struct {
		name    string
		h       JournalHeader
		byID    map[string]core.Experiment
		want    int    // experiments in the assembled result
		wantErr string // substring; "" = success
	}{
		{"fixed complete", fixed, set(4, classify.Crash), 4, ""},
		{"fixed missing", fixed, without(set(4, classify.Crash), "reg/2"), 0,
			"merge incomplete: the planner requires reg/2, which no journal records (1 missing)"},
		{"fixed beyond the plan ignored", fixed, set(6, classify.Crash), 4, ""},
		{"adaptive complete", adaptive, set(96, classify.Correct), 96, ""},
		{"adaptive missing", adaptive, without(set(96, classify.Correct), "reg/17"), 0,
			"the planner requires reg/17, which no journal records"},
		{"adaptive extra", adaptive, set(97, classify.Correct), 0,
			"journals record 97 experiments but the adaptive planner replay expects 96"},
		{"adaptive stopped early", adaptive, set(96, classify.Correct, classify.Crash), 0,
			"the planner requires reg/96, which no journal records"},
	} {
		contract, err := tc.h.Contract()
		if err != nil {
			t.Fatal(err)
		}
		res, err := contract.Assemble(tc.byID)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if len(res.Experiments) != tc.want || res.Tallies[0].Executions != tc.want {
			t.Errorf("%s: %d experiments, %d tallied, want %d", tc.name, len(res.Experiments), res.Tallies[0].Executions, tc.want)
		}
		for i, e := range res.Experiments {
			if e.Index != i {
				t.Errorf("%s: experiment %d is %s, want plan order", tc.name, i, e.ID())
				break
			}
		}
		if tc.h.Adaptive && (res.Adaptive == nil || res.Adaptive.Rounds != 1 || !res.Adaptive.Strata[0].Closed) {
			t.Errorf("%s: planner stats %+v, want one closed round", tc.name, res.Adaptive)
		}
	}
}

// TestMergedShardsByteIdentical is the determinism gate in Go-test form:
// a campaign run as 3 journaled shards and merged must render the exact
// bytes of the single-process campaign at the same seed, for both the
// CSV and the table layout.
func TestMergedShardsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test is slow")
	}
	im, ranks := buildWavetoy(t)
	base := core.Config{
		Image: im, Ranks: ranks, Injections: 6, Seed: 42,
		Regions: []core.Region{core.RegionRegularReg, core.RegionText},
	}

	full, err := core.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	var wantCSV, wantTable bytes.Buffer
	WriteCampaignCSV(&wantCSV, "wavetoy", full)
	WriteCampaign(&wantTable, "wavetoy", full)

	dir := t.TempDir()
	const k = 3
	paths := make([]string, k)
	for shard := 0; shard < k; shard++ {
		cfg := base
		cfg.Shard, cfg.NumShards = shard, k
		paths[shard] = filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", shard))
		j, err := CreateJournal(paths[shard], CampaignHeader("wavetoy", cfg))
		if err != nil {
			t.Fatal(err)
		}
		cfg.OnExperiment = func(e core.Experiment) {
			if err := j.Append(e); err != nil {
				t.Errorf("append: %v", err)
			}
		}
		if _, err := core.Run(cfg); err != nil {
			t.Fatal(err)
		}
		j.Close()
	}

	m, err := MergeJournals(paths)
	if err != nil {
		t.Fatal(err)
	}
	var gotCSV, gotTable bytes.Buffer
	WriteCampaignCSV(&gotCSV, m.Header.App, m.Result)
	WriteCampaign(&gotTable, m.Header.App, m.Result)

	if !bytes.Equal(wantCSV.Bytes(), gotCSV.Bytes()) {
		t.Errorf("merged CSV differs from single-process CSV:\n-- single --\n%s\n-- merged --\n%s",
			wantCSV.Bytes(), gotCSV.Bytes())
	}
	if !bytes.Equal(wantTable.Bytes(), gotTable.Bytes()) {
		t.Errorf("merged table differs from single-process table:\n-- single --\n%s\n-- merged --\n%s",
			wantTable.Bytes(), gotTable.Bytes())
	}
}

// TestResumeAfterCancelEqualsUninterrupted kills a journaled campaign
// mid-run (stop after a few experiments), resumes it from the journal,
// and requires the final CSV to equal an uninterrupted run's.
func TestResumeAfterCancelEqualsUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test is slow")
	}
	im, ranks := buildWavetoy(t)
	base := core.Config{
		Image: im, Ranks: ranks, Injections: 8, Seed: 11,
		Regions:     []core.Region{core.RegionRegularReg},
		Parallelism: 1,
	}

	full, err := core.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	WriteCampaignCSV(&want, "wavetoy", full)

	path := filepath.Join(t.TempDir(), "j.jsonl")
	hdr := CampaignHeader("wavetoy", base)

	// First leg: stop dispatching after 3 finished experiments.
	j, err := CreateJournal(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var once sync.Once
	count := 0
	cfg := base
	cfg.Stop = stop
	cfg.OnExperiment = func(e core.Experiment) {
		if err := j.Append(e); err != nil {
			t.Errorf("append: %v", err)
		}
		count++
		if count >= 3 {
			once.Do(func() { close(stop) })
		}
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if !res.Interrupted {
		t.Fatal("campaign was not interrupted (stop fired too late to matter)")
	}
	_, partial, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(partial) == 0 || len(partial) >= base.Injections {
		t.Fatalf("interrupted journal has %d of %d experiments; expected a strict subset",
			len(partial), base.Injections)
	}

	// Second leg: resume from the journal and finish.
	j2, completed, err := ResumeJournal(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if len(completed) != len(partial) {
		t.Fatalf("resume found %d completed, journal had %d", len(completed), len(partial))
	}
	cfg2 := base
	cfg2.Completed = completed
	cfg2.OnExperiment = func(e core.Experiment) {
		if err := j2.Append(e); err != nil {
			t.Errorf("append: %v", err)
		}
	}
	res2, err := core.Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if res2.Interrupted {
		t.Fatal("resumed run interrupted")
	}

	var got bytes.Buffer
	WriteCampaignCSV(&got, "wavetoy", res2)
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("resumed CSV differs from uninterrupted run:\n-- uninterrupted --\n%s\n-- resumed --\n%s",
			want.Bytes(), got.Bytes())
	}

	// The journal now covers the whole plan: merging the single journal
	// must reproduce the same CSV a third way.
	m, err := MergeJournals([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	var merged bytes.Buffer
	WriteCampaignCSV(&merged, m.Header.App, m.Result)
	if !bytes.Equal(want.Bytes(), merged.Bytes()) {
		t.Error("merged resumed journal differs from uninterrupted CSV")
	}
}

// TestShardedResumeByteIdentical cuts a shard's journal mid-run, resumes
// it, and requires the journal bytes and the shard's tallies to equal an
// uninterrupted run of the shard: the shard filter narrows the plan
// before the frontier drops the entries the journal records.
func TestShardedResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test is slow")
	}
	im, ranks := buildWavetoy(t)
	base := core.Config{
		Image: im, Ranks: ranks, Injections: 9, Seed: 11, Shard: 1, NumShards: 3,
		Regions:     []core.Region{core.RegionRegularReg, core.RegionHeap},
		Parallelism: 1, // finishes in plan order, so the cut is a prefix
	}
	hdr := CampaignHeader("wavetoy", base)
	dir := t.TempDir()
	// session runs cfg with every experiment appended to j; after cut
	// appends it stops dispatching (0: never).
	session := func(cfg core.Config, j *Journal, cut int) (*core.Result, int) {
		t.Helper()
		stop := make(chan struct{})
		ran := 0
		cfg.Stop = stop
		cfg.OnExperiment = func(e core.Experiment) {
			if err := j.Append(e); err != nil {
				t.Errorf("append: %v", err)
			}
			if ran++; ran == cut {
				close(stop)
			}
		}
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return res, ran
	}
	read := func(path string) []byte {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	fullPath := filepath.Join(dir, "full.jsonl")
	j, err := CreateJournal(fullPath, hdr)
	if err != nil {
		t.Fatal(err)
	}
	full, shardSize := session(base, j, 0)
	if shardSize != 6 || full.Interrupted {
		t.Fatalf("shard 1/3 of 18 entries ran %d (interrupted %v), want 6", shardSize, full.Interrupted)
	}

	cutPath := filepath.Join(dir, "cut.jsonl")
	if j, err = CreateJournal(cutPath, hdr); err != nil {
		t.Fatal(err)
	}
	if part, _ := session(base, j, 2); !part.Interrupted {
		t.Fatal("the stop did not interrupt the shard")
	}
	j, completed, err := ResumeJournal(cutPath, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if len(completed) != 2 {
		t.Fatalf("the cut journal records %d experiments, want 2", len(completed))
	}
	cfg := base
	cfg.Completed = completed
	resumed, rerun := session(cfg, j, 0)
	if rerun != shardSize-len(completed) || resumed.Interrupted {
		t.Fatalf("the resume ran %d experiments (interrupted %v), want the %d the journal lacked",
			rerun, resumed.Interrupted, shardSize-len(completed))
	}
	if got, want := read(cutPath), read(fullPath); !bytes.Equal(got, want) {
		t.Errorf("resumed shard journal differs from the uninterrupted one:\n-- resumed --\n%s\n-- uninterrupted --\n%s", got, want)
	}
	var got, want bytes.Buffer
	WriteCampaignCSV(&got, "wavetoy", resumed)
	WriteCampaignCSV(&want, "wavetoy", full)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("resumed shard tallies differ:\n%s\nwant\n%s", got.Bytes(), want.Bytes())
	}
}

// FuzzParseSegment feeds torn and mutated journals to the parser a resume
// and the coordinator's ingestion share, seeded from a real campaign's
// journal with flight records and divergences.  It must never panic, and
// the valid prefix it reports must parse to the same header and
// experiments, with nothing left over.
func FuzzParseSegment(f *testing.F) {
	im, ranks := buildWavetoy(f)
	cfg := core.Config{Image: im, Ranks: ranks, Injections: 6, Seed: 7,
		Regions:   []core.Region{core.RegionRegularReg, core.RegionMessage},
		Forensics: true, TraceDiff: true, CheckpointInterval: core.DefaultCheckpointInterval}
	path := filepath.Join(f.TempDir(), "j.jsonl")
	j, err := CreateJournal(path, CampaignHeader("wavetoy", cfg))
	if err != nil {
		f.Fatal(err)
	}
	cfg.OnExperiment = func(e core.Experiment) {
		if err := j.Append(e); err != nil {
			f.Error(err)
		}
	}
	if _, err := core.Run(cfg); err != nil {
		f.Fatal(err)
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)-7])
	f.Add(data[:bytes.IndexByte(data, '\n')+1])
	f.Fuzz(func(t *testing.T, data []byte) {
		h, completed, valid, err := ParseSegment(data)
		if err != nil {
			return
		}
		if valid > len(data) || valid > 0 && data[valid-1] != '\n' {
			t.Fatalf("valid prefix of %d bytes in %d, not at a line end", valid, len(data))
		}
		h2, completed2, valid2, err := ParseSegment(data[:valid])
		if err != nil || valid2 != valid || !reflect.DeepEqual(h, h2) || !reflect.DeepEqual(completed, completed2) {
			t.Fatalf("re-parsing the %d-byte valid prefix: %v, %d valid, header %v, %d of %d experiments",
				valid, err, valid2, reflect.DeepEqual(h, h2), len(completed2), len(completed))
		}
	})
}
