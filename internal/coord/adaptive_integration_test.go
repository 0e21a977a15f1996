package coord

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mpifault/internal/analysis"
	"mpifault/internal/core"
	"mpifault/internal/report"
	"mpifault/internal/telemetry"
)

// TestCoordinatorAdaptiveByteIdentity is the distributed half of the
// adaptive determinism contract: a coordinator cutting round-barrier
// leases to three workers must reproduce, byte for byte, the CSV of the
// single-process adaptive core.Run at the same (seed, contract) — and the
// spool directory must reconstruct the same bytes through faultmerge's
// replay-validating path.
func TestCoordinatorAdaptiveByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive cluster integration test is not short")
	}
	im, ranks := buildWavetoy(t)
	regions := []core.Region{core.RegionRegularReg, core.RegionHeap}
	const seed = 7
	const targetD = 0.15

	// The reference run must use the same AVF priors Submit computes, or
	// the pilot rounds (and hence the executed prefixes) would differ.
	labels, err := analysis.AVFPriors(im)
	if err != nil {
		t.Fatal(err)
	}
	priors, err := core.PriorsFromLabels(labels)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(core.Config{
		Image: im, Ranks: ranks, Regions: regions, Seed: seed,
		Adaptive: true, TargetHalfWidth: targetD, AVFPriors: priors,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	report.WriteCampaignCSV(&want, "wavetoy", res)

	spool := t.TempDir()
	co := New(Config{Metrics: telemetry.New(), Dir: spool})
	// After every completion — so at every barrier — the round and stratum
	// summary Status reports must be what a replay of the frontier over the
	// results ingested so far says.
	rounds := map[int]bool{}
	checkStatus := func() {
		co.mu.Lock()
		defer co.mu.Unlock()
		_, missing, stats, err := co.c.contract.Frontier(co.c.results)
		if err != nil {
			t.Error(err)
			return
		}
		round := stats.Rounds
		if len(missing) > 0 {
			round++
		}
		if co.c.round != round || co.c.adaptive != stats.StatusSuffix() {
			t.Errorf("status after %d results: round %d %q, the frontier says round %d %q",
				len(co.c.results), co.c.round, co.c.adaptive, round, stats.StatusSuffix())
		}
		rounds[round] = true
	}
	// The server also records every grant on its way to a worker.
	var grantsMu sync.Mutex
	grants := map[int]leaseGrant{}
	handler := co.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/api/lease/complete":
			handler.ServeHTTP(w, r)
			checkStatus()
			return
		case "/api/lease/acquire":
		default:
			handler.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, r)
		if rec.Code == http.StatusOK {
			var g leaseGrant
			if err := json.Unmarshal(rec.Body.Bytes(), &g); err != nil {
				t.Errorf("grant does not parse: %v", err)
			}
			grantsMu.Lock()
			grants[g.Lease] = g
			grantsMu.Unlock()
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer srv.Close()
	if err := co.Submit(Spec{
		App: "wavetoy", Seed: seed, Regions: []string{"reg", "heap"},
		Adaptive: true, TargetHalfWidth: targetD,
		LeaseSize: 16, LeaseTTLMillis: 10_000,
	}); err != nil {
		t.Fatal(err)
	}
	checkStatus() // the pilot round, before any completion

	var wg sync.WaitGroup
	defer wg.Wait()
	stop := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(stop) })
	for _, name := range []string{"w1", "w2", "w3"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			if err := RunWorker(WorkerOptions{
				URL: srv.URL, Name: name, Poll: 25 * time.Millisecond, Stop: stop,
			}); err != nil {
				t.Errorf("worker %s: %v", name, err)
			}
		}(name)
	}

	waitDone(t, co, 5*time.Minute)
	csv, unclassified, err := co.ResultCSV()
	if err != nil {
		t.Fatal(err)
	}
	if unclassified != 0 {
		t.Fatalf("%d unclassified experiments", unclassified)
	}
	if !bytes.Equal(csv, want.Bytes()) {
		t.Fatalf("adaptive cluster CSV differs from the single-process adaptive run:\n--- cluster\n%s--- single\n%s",
			csv, want.Bytes())
	}
	st := co.Status()
	if st.State != "complete" || len(st.Workers) != 3 {
		t.Fatalf("final status %+v", st)
	}
	if st.Round != res.Adaptive.Rounds || st.Adaptive == "" {
		t.Fatalf("adaptive status %+v, want round %d of the single-process run", st, res.Adaptive.Rounds)
	}
	co.mu.Lock()
	seen := len(rounds)
	co.mu.Unlock()
	if seen != res.Adaptive.Rounds {
		t.Errorf("status named %d distinct rounds across completions, the campaign ran %d", seen, res.Adaptive.Rounds)
	}
	// Every stratum's spend stayed within the fixed-n cap the planner
	// advertises in the spec.
	if res.Adaptive.TotalExecuted() != st.Results {
		t.Fatalf("cluster executed %d experiments, single process %d",
			st.Results, res.Adaptive.TotalExecuted())
	}

	// Every lease named its entries — no more than a lease holds, and
	// between them exactly the experiments the campaign executed.
	granted := map[string]bool{}
	for _, g := range grants {
		if len(g.Entries) == 0 || len(g.Entries) > 16 || g.End-g.Start != len(g.Entries) {
			t.Errorf("grant of lease %d [%d,%d) carries %d entries", g.Lease, g.Start, g.End, len(g.Entries))
		}
		for _, id := range g.Entries {
			granted[id] = true
		}
	}
	if len(grants) != st.LeasesTotal || len(granted) != st.Results {
		t.Errorf("%d leases granted %d distinct entries; the campaign cut %d leases and executed %d experiments",
			len(grants), len(granted), st.LeasesTotal, st.Results)
	}

	// Independent reconstruction: faultmerge's directory path replays the
	// planner over the spooled segments and must emit the same bytes.
	m, err := report.MergeDir(spool)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Header.Adaptive {
		t.Error("spool merge did not recognize the adaptive contract")
	}
	var merged bytes.Buffer
	report.WriteCampaignCSV(&merged, m.Header.App, m.Result)
	if !bytes.Equal(merged.Bytes(), want.Bytes()) {
		t.Fatalf("faultmerge -coord reconstruction differs:\n--- merged\n%s--- single\n%s",
			merged.Bytes(), want.Bytes())
	}
}
