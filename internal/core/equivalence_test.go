package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mpifault/internal/analysis"
	"mpifault/internal/apps"
	"mpifault/internal/classify"
	"mpifault/internal/image"
	"mpifault/internal/isa"
	"mpifault/internal/mpi"
	"mpifault/internal/rng"
	"mpifault/internal/vm"
)

// equivFor builds the partition for an image, failing the test on any
// analyzer finding.
func equivFor(t *testing.T, im *image.Image) *analysis.Equivalence {
	t.Helper()
	eq, err := analysis.EquivalenceFor(im)
	if err != nil {
		t.Fatal(err)
	}
	return eq
}

func wavetoyImage(t *testing.T) (*image.Image, int) {
	t.Helper()
	a, err := apps.Get("wavetoy")
	if err != nil {
		t.Fatal(err)
	}
	appCfg := a.Default
	appCfg.Ranks, appCfg.Steps, appCfg.Scale = 4, 3, 32
	im, err := a.Build(appCfg)
	if err != nil {
		t.Fatal(err)
	}
	return im, appCfg.Ranks
}

// TestEquivAuditAllCorrect is the soundness regression for the
// equivalence partition: a campaign restricted to provably-benign bits
// must never manifest.  A single failure means the analyzer claimed a
// consequential bit benign — exactly the bug class the audit policy
// exists to catch.
func TestEquivAuditAllCorrect(t *testing.T) {
	im, ranks := wavetoyImage(t)
	eq := equivFor(t, im)

	res, err := Run(Config{
		Image:             im,
		Ranks:             ranks,
		MPIConfig:         mpi.Config{},
		Injections:        14,
		Regions:           []Region{RegionRegularReg},
		Seed:              7,
		WallLimit:         30 * time.Second,
		KeepExperiments:   true,
		Equivalence:       eq,
		EquivalencePolicy: EquivAudit,
	})
	if err != nil {
		t.Fatal(err)
	}

	audited := 0
	for _, e := range res.Experiments {
		if e.Outcome != classify.Correct {
			t.Errorf("benign-bit flip manifested as %v: %q (trigger %d, rank %d)",
				e.Outcome, e.Desc, e.Trigger, e.Rank)
		}
		if strings.Contains(e.Desc, "[equiv-benign]") {
			audited++
			if e.ClassID != 0 || e.BenignBits <= 0 {
				t.Errorf("audit pilot %q: ClassID=%d BenignBits=%d, want 0 and > 0", e.Desc, e.ClassID, e.BenignBits)
			}
			if e.Candidates <= 0 || e.Candidates >= RegisterSpaceBits {
				t.Errorf("audit pilot %q: candidate set %d not a strict subset of %d",
					e.Desc, e.Candidates, RegisterSpaceBits)
			}
		}
	}
	if audited == 0 {
		t.Fatal("no injection actually consulted the equivalence map")
	}

	s := res.Equivalence
	if s == nil {
		t.Fatal("campaign with Equivalence set returned nil EquivalenceStats")
	}
	if s.Policy != EquivAudit || s.Experiments != len(res.Experiments) {
		t.Errorf("EquivalenceStats = %+v, want audit policy over %d experiments", s, len(res.Experiments))
	}
	if f := s.BenignFraction(); f <= 0 || f >= 1 {
		t.Errorf("benign fraction = %.3f, want strictly inside (0,1)", f)
	}

	// The validator must agree that the audit held.
	if fs := ValidateEquivalence(eq, res.Experiments); len(fs) > 0 {
		t.Errorf("ValidateEquivalence on a clean audit: %v", fs)
	}
}

// TestEquivAnnotateMatchesBaseline: annotate mode must draw exactly the
// baseline's random numbers, so a fixed seed yields flip-for-flip and
// outcome-for-outcome identical campaigns; only the class/benign
// annotations differ.
func TestEquivAnnotateMatchesBaseline(t *testing.T) {
	im, ranks := wavetoyImage(t)
	eq := equivFor(t, im)

	base := Config{
		Image:           im,
		Ranks:           ranks,
		MPIConfig:       mpi.Config{},
		Injections:      12,
		Regions:         []Region{RegionRegularReg},
		Seed:            3,
		WallLimit:       30 * time.Second,
		KeepExperiments: true,
	}
	baseline, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	annotated := base
	annotated.Equivalence = eq
	annotated.EquivalencePolicy = EquivAnnotate
	ann, err := Run(annotated)
	if err != nil {
		t.Fatal(err)
	}

	if len(ann.Experiments) != len(baseline.Experiments) {
		t.Fatalf("annotate ran %d experiments, baseline %d", len(ann.Experiments), len(baseline.Experiments))
	}
	stamped := 0
	for i := range ann.Experiments {
		a, b := &ann.Experiments[i], &baseline.Experiments[i]
		if a.Desc != b.Desc || a.Outcome != b.Outcome || a.Trigger != b.Trigger || a.Rank != b.Rank {
			t.Errorf("experiment %d diverged: annotate {%q %v t=%d r=%d} vs baseline {%q %v t=%d r=%d}",
				i, a.Desc, a.Outcome, a.Trigger, a.Rank, b.Desc, b.Outcome, b.Trigger, b.Rank)
		}
		if a.ClassID != 0 || a.BenignBits > 0 {
			stamped++
		}
	}
	if stamped == 0 {
		t.Error("annotate mode stamped no experiment with partition data")
	}

	// Annotate over the full space is the validator's ground truth: on a
	// correct analyzer it must come back clean.
	if fs := ValidateEquivalence(eq, ann.Experiments); len(fs) > 0 {
		t.Errorf("ValidateEquivalence on annotated campaign: %v", fs)
	}
}

// TestEquivPruneDeterministicReweighted: prune mode must be
// deterministic under a fixed seed, and the integer Horvitz–Thompson
// reweighting must conserve mass exactly.
func TestEquivPruneDeterministicReweighted(t *testing.T) {
	im, ranks := wavetoyImage(t)
	eq := equivFor(t, im)

	cfg := Config{
		Image:             im,
		Ranks:             ranks,
		MPIConfig:         mpi.Config{},
		Injections:        12,
		Regions:           []Region{RegionRegularReg},
		Seed:              5,
		WallLimit:         30 * time.Second,
		KeepExperiments:   true,
		Equivalence:       eq,
		EquivalencePolicy: EquivPrune,
	}
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Experiments) != len(second.Experiments) {
		t.Fatalf("rerun changed experiment count: %d vs %d", len(first.Experiments), len(second.Experiments))
	}
	pruned := 0
	for i := range first.Experiments {
		a, b := &first.Experiments[i], &second.Experiments[i]
		if a.Desc != b.Desc || a.Outcome != b.Outcome || a.ClassID != b.ClassID || a.BenignBits != b.BenignBits {
			t.Errorf("experiment %d not deterministic: {%q %v %d %d} vs {%q %v %d %d}",
				i, a.Desc, a.Outcome, a.ClassID, a.BenignBits, b.Desc, b.Outcome, b.ClassID, b.BenignBits)
		}
		if strings.Contains(a.Desc, "[equiv]") {
			pruned++
			if a.Candidates <= 0 || a.Candidates >= RegisterSpaceBits {
				t.Errorf("pruned experiment %q: candidates %d not a strict subset of %d",
					a.Desc, a.Candidates, RegisterSpaceBits)
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no injection actually sampled the pruned space")
	}

	weighted := ReweightTallies([]Region{RegionRegularReg}, first.Experiments)
	if len(weighted) != 1 {
		t.Fatalf("ReweightTallies returned %d tallies, want 1", len(weighted))
	}
	wt := weighted[0]
	if wt.Experiments != len(first.Experiments) {
		t.Errorf("weighted tally covers %d experiments, want %d", wt.Experiments, len(first.Experiments))
	}
	if want := uint64(len(first.Experiments)) * RegisterSpaceBits; wt.TotalMass != want {
		t.Errorf("TotalMass = %d, want %d", wt.TotalMass, want)
	}
	var sum uint64
	for _, o := range wt.Outcomes {
		sum += o
	}
	if sum != wt.TotalMass {
		t.Errorf("outcome mass %d does not conserve total mass %d", sum, wt.TotalMass)
	}
}

// fakeEquivMap is a hand-built partition for unit-testing the injector
// and validator without a real analysis.
type fakeEquivMap struct {
	benign      uint16
	ids         [10]uint64
	ok          bool
	benignAddrs map[uint32]bool
}

func (f *fakeEquivMap) PartitionAt(pc uint32) (uint16, [10]uint64, bool) {
	return f.benign, f.ids, f.ok
}

func (f *fakeEquivMap) StaticBenignAt(addr uint32) bool { return f.benignAddrs[addr] }

// TestApplyRegisterFaultEquivPolicies pins the sampling behavior of each
// policy against a synthetic partition: benign GPRs r0/r2/r4/r6, live
// flags, everything else classed.
func TestApplyRegisterFaultEquivPolicies(t *testing.T) {
	im := faultTestImage(t)
	fake := &fakeEquivMap{benign: 0x55, ok: true}
	for i := range fake.ids {
		fake.ids[i] = uint64(100 + i)
	}
	for g := 0; g < isa.NumGPR; g++ {
		if fake.benign&(1<<g) != 0 {
			fake.ids[g] = 0
		}
	}
	const (
		wantBenign     = 4*32 + 28     // four benign GPRs + the 28 unread flag bits
		wantPruneCands = 4*32 + 32 + 4 // four live GPRs + PC + readable flags
	)

	benignGPR := func(name string) bool {
		for g := 0; g < isa.NumGPR; g++ {
			if fake.benign&(1<<g) != 0 && name == isa.GPRName(g) {
				return true
			}
		}
		return false
	}

	for seed := uint64(0); seed < 64; seed++ {
		m := vm.New(im)
		desc, _, classID, benignBits, cands := ApplyRegisterFaultEquiv(m, rng.New(seed), fake, EquivPrune)
		if !strings.HasSuffix(desc, " [equiv]") {
			t.Fatalf("prune desc %q missing policy suffix", desc)
		}
		if cands != wantPruneCands || benignBits != wantBenign {
			t.Fatalf("prune: candidates=%d benign=%d, want %d and %d", cands, benignBits, wantPruneCands, wantBenign)
		}
		fields := strings.Fields(desc)
		if benignGPR(fields[0]) {
			t.Fatalf("prune flipped provably-benign %q", desc)
		}
		if fields[0] == "flags" {
			if bit := fields[2]; bit != "0" && bit != "1" && bit != "2" && bit != "3" {
				t.Fatalf("prune flipped unreadable flags bit: %q", desc)
			}
			if classID != fake.ids[9] {
				t.Fatalf("prune flags classID = %d, want %d", classID, fake.ids[9])
			}
		}
		if fields[0] == "pc" && classID != fake.ids[8] {
			t.Fatalf("prune pc classID = %d, want %d", classID, fake.ids[8])
		}
		if classID == 0 {
			t.Fatalf("prune pilot %q has no class", desc)
		}
	}

	for seed := uint64(0); seed < 64; seed++ {
		m := vm.New(im)
		desc, _, classID, benignBits, cands := ApplyRegisterFaultEquiv(m, rng.New(seed), fake, EquivAudit)
		if !strings.HasSuffix(desc, " [equiv-benign]") {
			t.Fatalf("audit desc %q missing policy suffix", desc)
		}
		if classID != 0 || benignBits != wantBenign || cands != wantBenign {
			t.Fatalf("audit: classID=%d benign=%d cands=%d, want 0, %d, %d", classID, benignBits, cands, wantBenign, wantBenign)
		}
		fields := strings.Fields(desc)
		switch {
		case benignGPR(fields[0]):
		case fields[0] == "flags":
			var bit int
			if _, err := fmt.Sscanf(desc, "flags bit %d", &bit); err != nil || bit < isa.FlagsReadableBits {
				t.Fatalf("audit flipped readable flags bit: %q", desc)
			}
		default:
			t.Fatalf("audit flipped non-benign target: %q", desc)
		}
	}

	// Annotate must mutate the machine exactly like the baseline.
	for seed := uint64(0); seed < 16; seed++ {
		m1, m2 := vm.New(im), vm.New(im)
		want, wantSite := ApplyRegisterFault(m1, rng.New(seed))
		desc, site, _, benignBits, cands := ApplyRegisterFaultEquiv(m2, rng.New(seed), fake, EquivAnnotate)
		if desc != want || site != wantSite {
			t.Fatalf("annotate desc %q, baseline %q", desc, want)
		}
		if m1.PC != m2.PC || m1.Flags != m2.Flags || m1.Regs != m2.Regs {
			t.Fatalf("annotate perturbed the machine differently from baseline (seed %d)", seed)
		}
		if benignBits != wantBenign || cands != RegisterSpaceBits {
			t.Fatalf("annotate: benign=%d cands=%d, want %d and %d", benignBits, cands, wantBenign, RegisterSpaceBits)
		}
	}

	// Without a partition for the PC, audit skips the flip entirely and
	// the other policies degrade to the unannotated baseline.
	noMap := &fakeEquivMap{ok: false}
	m := vm.New(im)
	desc, _, classID, benignBits, cands := ApplyRegisterFaultEquiv(m, rng.New(1), noMap, EquivAudit)
	if !strings.HasPrefix(desc, "no partition") || cands != 0 || classID != 0 || benignBits != 0 {
		t.Errorf("audit without partition: %q classID=%d benign=%d cands=%d", desc, classID, benignBits, cands)
	}
	m = vm.New(im)
	desc, _, classID, benignBits, cands = ApplyRegisterFaultEquiv(m, rng.New(1), noMap, EquivAnnotate)
	if classID != 0 || benignBits != 0 || cands != RegisterSpaceBits || strings.Contains(desc, "[") {
		t.Errorf("annotate without partition: %q classID=%d benign=%d cands=%d", desc, classID, benignBits, cands)
	}
}

// TestReweightTalliesArithmetic pins the integer Horvitz–Thompson
// arithmetic on synthetic experiments.
func TestReweightTalliesArithmetic(t *testing.T) {
	exps := []Experiment{
		{Region: RegionRegularReg, Index: 0, Outcome: classify.Crash, BenignBits: 120, ClassID: 1},
		{Region: RegionRegularReg, Index: 1, Outcome: classify.Correct, BenignBits: 0},
		{Region: RegionData, Index: 2, Outcome: classify.Hang},
	}
	out := ReweightTallies([]Region{RegionRegularReg, RegionData}, exps)
	if len(out) != 2 {
		t.Fatalf("got %d tallies, want 2", len(out))
	}
	reg := out[0]
	if reg.Experiments != 2 || reg.TotalMass != 2*RegisterSpaceBits {
		t.Errorf("reg tally: %d experiments mass %d, want 2 and %d", reg.Experiments, reg.TotalMass, 2*RegisterSpaceBits)
	}
	// The crash experiment's benign mass is credited to Correct: crash
	// carries 320-120=200 bits, correct 120+320=440.
	if reg.Outcomes[classify.Crash] != 200 || reg.Outcomes[classify.Correct] != 440 {
		t.Errorf("reg outcomes: crash=%d correct=%d, want 200 and 440", reg.Outcomes[classify.Crash], reg.Outcomes[classify.Correct])
	}
	if reg.Errors() != 200 {
		t.Errorf("reg error mass = %d, want 200", reg.Errors())
	}
	if got, want := reg.ErrorRate(), 100*200.0/640.0; got != want {
		t.Errorf("reg error rate = %v, want %v", got, want)
	}
	data := out[1]
	if data.Outcomes[classify.Hang] != RegisterSpaceBits || data.TotalMass != RegisterSpaceBits {
		t.Errorf("data tally: hang=%d mass=%d, want full mass on hang", data.Outcomes[classify.Hang], data.TotalMass)
	}
}

// TestValidateEquivalenceFindings drives the validator with synthetic
// experiments covering each finding kind, plus clean ones that must not
// fire.
func TestValidateEquivalenceFindings(t *testing.T) {
	em := &fakeEquivMap{benignAddrs: map[uint32]bool{0x1000: true}}
	exps := []Experiment{
		// A benign pilot that manifested: analyzer bug.
		{Region: RegionRegularReg, Index: 0, Rank: 0, Trigger: 10, Desc: "r1 bit 3 [equiv-benign]",
			Outcome: classify.Crash, ClassID: 0, BenignBits: 120},
		// Two pilots of the same class, same flip, same rank, different
		// outcomes: a mixed class.
		{Region: RegionRegularReg, Index: 1, Rank: 1, Trigger: 20, Desc: "r2 bit 4 [equiv]",
			Outcome: classify.Correct, ClassID: 7, BenignBits: 100},
		{Region: RegionRegularReg, Index: 2, Rank: 1, Trigger: 30, Desc: "r2 bit 4 [equiv]",
			Outcome: classify.Crash, ClassID: 7, BenignBits: 100},
		// A fault in a claimed-unreferenced data symbol that manifested.
		{Region: RegionData, Index: 3, Rank: 0, Desc: "Data 0x00001000 bit 3", Outcome: classify.Hang},
		// Clean: a manifested data fault outside any benign span.
		{Region: RegionData, Index: 4, Rank: 0, Desc: "Data 0x00002000 bit 3", Outcome: classify.Hang},
		// Clean: a lone classed pilot.
		{Region: RegionRegularReg, Index: 5, Rank: 2, Trigger: 40, Desc: "r3 bit 1 [equiv]",
			Outcome: classify.Crash, ClassID: 9, BenignBits: 64},
		// Clean: same class as above but on another rank — no cross-rank
		// consistency is required.
		{Region: RegionRegularReg, Index: 6, Rank: 3, Trigger: 40, Desc: "r3 bit 1 [equiv]",
			Outcome: classify.Correct, ClassID: 9, BenignBits: 64},
		// Clean: a benign pilot that stayed Correct.
		{Region: RegionRegularReg, Index: 7, Rank: 0, Trigger: 50, Desc: "r4 bit 9 [equiv-benign]",
			Outcome: classify.Correct, ClassID: 0, BenignBits: 120},
	}
	got := ValidateEquivalence(em, exps)
	if len(got) != 3 {
		t.Fatalf("got %d findings, want 3: %v", len(got), got)
	}
	wantKinds := []string{"benign-manifested", "class-mixed", "data-benign-manifested"}
	for i, k := range wantKinds {
		if got[i].Kind != k {
			t.Errorf("finding %d kind = %q, want %q (sorted)", i, got[i].Kind, k)
		}
	}
	if !strings.Contains(got[1].Msg, "mixed outcomes") || !strings.Contains(got[1].Msg, "0x7") {
		t.Errorf("class-mixed message %q lacks the class identity", got[1].Msg)
	}

	// Rerunning must produce the identical, deterministically sorted list.
	again := ValidateEquivalence(em, exps)
	for i := range got {
		if got[i] != again[i] {
			t.Errorf("finding %d not deterministic: %v vs %v", i, got[i], again[i])
		}
	}
}

// TestParseEquivalencePolicy pins the CLI spellings.
func TestParseEquivalencePolicy(t *testing.T) {
	for s, want := range map[string]EquivalencePolicy{
		"": EquivOff, "off": EquivOff, "annotate": EquivAnnotate, "prune": EquivPrune, "audit": EquivAudit,
	} {
		if got, err := ParseEquivalencePolicy(s); err != nil || got != want {
			t.Errorf("ParseEquivalencePolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseEquivalencePolicy("dead"); err == nil {
		t.Error("ParseEquivalencePolicy accepted a liveness policy name")
	}
}
