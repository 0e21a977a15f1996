package core

import (
	"testing"

	"mpifault/internal/classify"
	"mpifault/internal/telemetry"
)

// TestCampaignTelemetryAndForensics runs one small campaign twice —
// plain, then with the registry and flight recorder attached — and
// checks (a) the instrumented run reaches identical outcomes, (b) the
// counters agree with the campaign's own tallies, and (c) forensics
// records land on the experiments and carry usable content.
func TestCampaignTelemetryAndForensics(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test is slow")
	}
	im, ranks := buildApp(t, "wavetoy")
	base := Config{
		Image: im, Ranks: ranks, Injections: 8, Seed: 5,
		Regions:         []Region{RegionRegularReg, RegionText, RegionMessage},
		KeepExperiments: true,
	}

	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.New()
	cfg := base
	cfg.Metrics = reg
	cfg.Forensics = true
	rich, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// (a) Telemetry and forensics must not perturb any outcome, message
	// faults included.  (The telemetry-disabled path is byte-identical by
	// construction; CI gates on that.)
	if len(plain.Experiments) != len(rich.Experiments) {
		t.Fatalf("experiment counts differ: %d vs %d", len(plain.Experiments), len(rich.Experiments))
	}
	for i := range plain.Experiments {
		p, r := plain.Experiments[i], rich.Experiments[i]
		p.Forensics, r.Forensics = nil, nil
		if p != r {
			t.Errorf("experiment %s diverged under telemetry:\nplain: %+v\nrich:  %+v", p.ID(), p, r)
		}
	}

	// (b) Counters vs tallies.
	s := reg.Snapshot()
	total := uint64(len(base.Regions) * base.Injections)
	if got := s.Counters[telemetry.MetricExperimentsPlanned]; got != total {
		t.Errorf("planned counter = %d, want %d", got, total)
	}
	if got := s.Counters[telemetry.MetricExperimentsFinished]; got != total {
		t.Errorf("finished counter = %d, want %d", got, total)
	}
	byOutcome := make(map[classify.Outcome]uint64)
	for _, e := range rich.Experiments {
		byOutcome[e.Outcome]++
	}
	for o, want := range byOutcome {
		if got := s.Counters[telemetry.OutcomeMetric(o.String())]; got != want {
			t.Errorf("outcome counter %s = %d, tallies say %d", o, got, want)
		}
	}
	if got := s.Gauges[telemetry.MetricExperimentsInflight]; got != 0 {
		t.Errorf("inflight gauge = %d after campaign end, want 0", got)
	}
	if got := s.Counters[telemetry.MetricJobs]; got < total {
		t.Errorf("jobs counter = %d, want >= %d (one per experiment)", got, total)
	}
	if got := s.Counters[telemetry.MetricInstrsRetired]; got == 0 {
		t.Error("retired-instructions counter never moved")
	}

	// (c) Forensics on every experiment.  Crash records carry a trap and
	// the PC ring when the traced rank itself trapped (a crash can also
	// manifest on a peer rank, so require at least one, not all).
	crashes, trapped, withLatency := 0, 0, 0
	for _, e := range rich.Experiments {
		if e.Forensics == nil {
			t.Fatalf("experiment %s missing forensics", e.ID())
		}
		f := e.Forensics
		if len(f.LastPCs) == 0 {
			t.Errorf("experiment %s: empty flight-recorder ring", e.ID())
		}
		if e.Outcome != classify.Crash {
			continue
		}
		crashes++
		if f.TrapKind != "" {
			trapped++
		}
		if lat, ok := f.Latency(); ok {
			withLatency++
			if lat > 1<<40 {
				t.Errorf("crash %s: absurd latency %d", e.ID(), lat)
			}
		}
	}
	if crashes == 0 {
		t.Error("campaign produced no crashes; forensics assertions never ran")
	}
	if trapped == 0 {
		t.Errorf("%d crashes, none with a recorded trap on the injected rank", crashes)
	}
	if withLatency == 0 {
		t.Errorf("%d crashes, none with a usable manifestation latency", crashes)
	}
	if crashHist := s.Histograms[telemetry.MetricCrashLatency]; crashHist.Count != uint64(withLatency) {
		t.Errorf("crash-latency histogram count = %d, experiments say %d", crashHist.Count, withLatency)
	}
}
