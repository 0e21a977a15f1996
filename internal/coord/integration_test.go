package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mpifault/internal/apps"
	"mpifault/internal/core"
	"mpifault/internal/image"
	"mpifault/internal/report"
	"mpifault/internal/telemetry"
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

// singleProcessCSV runs the reference campaign in-process — the bytes
// every cluster configuration must reproduce exactly.
func singleProcessCSV(t *testing.T, im *image.Image, ranks, injections int, seed uint64, regions []core.Region) []byte {
	t.Helper()
	res, err := core.Run(core.Config{
		Image: im, Ranks: ranks, Injections: injections, Seed: seed, Regions: regions,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	report.WriteCampaignCSV(&buf, "wavetoy", res)
	return buf.Bytes()
}

func waitDone(t *testing.T, co *Coordinator, timeout time.Duration) {
	t.Helper()
	select {
	case <-co.Done():
	case <-time.After(timeout):
		t.Fatalf("campaign did not finish within %v: %+v", timeout, co.Status())
	}
}

// TestCoordinatorSmoke is the tier-1 cluster gate: a coordinator behind
// a real HTTP server, two in-process workers pulling leases over the
// wire, and the final CSV compared byte for byte against the
// single-process run.
func TestCoordinatorSmoke(t *testing.T) {
	im, ranks := buildWavetoy(t)
	regions := []core.Region{core.RegionRegularReg, core.RegionMessage}
	const injections = 3
	const seed = 5
	want := singleProcessCSV(t, im, ranks, injections, seed, regions)

	co := New(Config{Metrics: telemetry.New()})
	if err := co.Submit(Spec{
		App: "wavetoy", Injections: injections, Seed: seed,
		Regions: []string{"reg", "message"}, LeaseSize: 2, LeaseTTLMillis: 10_000,
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	defer wg.Wait()
	stop := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(stop) })
	for _, name := range []string{"w1", "w2"} {
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

	waitDone(t, co, 3*time.Minute)
	csv, unclassified, err := co.ResultCSV()
	if err != nil {
		t.Fatal(err)
	}
	if unclassified != 0 {
		t.Fatalf("%d unclassified experiments", unclassified)
	}
	if !bytes.Equal(csv, want) {
		t.Fatalf("cluster CSV differs from single-process run:\n--- cluster\n%s--- single\n%s", csv, want)
	}
	st := co.Status()
	if st.State != "complete" || len(st.Workers) != 2 {
		t.Fatalf("final status %+v", st)
	}
}

// TestWorkerNameNeedsEscaping: a worker's name travels in the segment
// upload's query string, so one holding query syntax ("a+b&c") must reach
// the coordinator intact, or its uploads never match its lease.
func TestWorkerNameNeedsEscaping(t *testing.T) {
	co := New(Config{})
	if err := co.Submit(Spec{App: "wavetoy", Injections: 2, Seed: 5, Regions: []string{"reg"}, LeaseSize: 2}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	stop := make(chan struct{})
	done := make(chan error, 1)
	const name = "a+b&c"
	go func() {
		done <- RunWorker(WorkerOptions{URL: srv.URL, Name: name, Poll: 25 * time.Millisecond, Stop: stop})
	}()
	select {
	case <-co.Done():
	case <-time.After(2 * time.Minute):
		close(stop)
		<-done
		t.Fatalf("the campaign did not complete: %+v", co.Status())
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := co.Status()
	if st.State != "complete" || len(st.Workers) != 1 || st.Workers[0].Name != name || st.Workers[0].Results != 2 {
		t.Fatalf("final status %+v, want worker %q with both results", st, name)
	}
}

// TestCoordinatorWorkerDeathByteIdentity is the acceptance gate: three
// workers, one dies mid-campaign after uploading half a lease, the
// survivors steal the lease and re-run it, and the final CSV is still
// byte-identical to the single-process run — with the spool directory
// independently reconstructing the same bytes via faultmerge's path.
func TestCoordinatorWorkerDeathByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("worker-death integration test is not short")
	}
	im, ranks := buildWavetoy(t)
	regions := []core.Region{core.RegionRegularReg, core.RegionMessage}
	const injections = 4
	const seed = 11
	want := singleProcessCSV(t, im, ranks, injections, seed, regions)

	spool := t.TempDir()
	co := New(Config{Metrics: telemetry.New(), Dir: spool})
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	if err := co.Submit(Spec{
		App: "wavetoy", Injections: injections, Seed: seed,
		Regions: []string{"reg", "message"}, LeaseSize: 2, LeaseTTLMillis: 1_000,
	}); err != nil {
		t.Fatal(err)
	}

	// The doomed worker grabs the first lease over the wire, uploads a
	// genuine half-segment, and vanishes without ever heartbeating: the
	// lease must expire, its partial results must survive, and the
	// re-run must agree with them.
	g3, ok, err := co.Acquire("doomed")
	if err != nil || !ok {
		t.Fatalf("doomed acquire: ok=%v err=%v", ok, err)
	}
	plan := core.Plan{Regions: regions, Injections: injections}
	partialRes, err := core.Run(core.Config{
		Image: im, Ranks: ranks, Injections: injections, Seed: seed, Regions: regions,
		Entries: plan.Range(g3.Start, g3.Start+1), KeepExperiments: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var seg bytes.Buffer
	enc := json.NewEncoder(&seg)
	if err := enc.Encode(report.CampaignHeader("wavetoy", core.Config{
		Ranks: ranks, Injections: injections, Regions: regions, Seed: seed,
	})); err != nil {
		t.Fatal(err)
	}
	if len(partialRes.Experiments) != 1 {
		t.Fatalf("partial run produced %d experiments, want 1", len(partialRes.Experiments))
	}
	if err := enc.Encode(report.EntryFromExperiment(partialRes.Experiments[0])); err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("%s/api/segment?lease=%d&gen=%d&worker=doomed&offset=0", srv.URL, g3.Lease, g3.Gen)
	resp, err := http.Post(url, "application/jsonl", &seg)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("doomed upload: %s", resp.Status)
	}
	// SIGKILL equivalent: no renew, no complete, no further traffic.

	var wg sync.WaitGroup
	defer wg.Wait()
	stop := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(stop) })
	for _, name := range []string{"w1", "w2"} {
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
	if !bytes.Equal(csv, want) {
		t.Fatalf("cluster CSV differs from single-process run after worker death:\n--- cluster\n%s--- single\n%s", csv, want)
	}
	st := co.Status()
	if st.LeasesStolen < 1 {
		t.Fatalf("expected at least one stolen lease, status %+v", st)
	}
	if st.Duplicates < 1 {
		t.Fatalf("expected the re-run to resolve duplicates, status %+v", st)
	}

	// The spool directory is an independent reconstruction path: the
	// same bytes must come back out of faultmerge's directory merge.
	m, err := report.MergeDir(spool)
	if err != nil {
		t.Fatal(err)
	}
	var merged bytes.Buffer
	report.WriteCampaignCSV(&merged, m.Header.App, m.Result)
	if !bytes.Equal(merged.Bytes(), want) {
		t.Fatalf("faultmerge -coord reconstruction differs from single-process run:\n--- merged\n%s--- single\n%s", merged.Bytes(), want)
	}
}

// TestWorkerRestoresOnEveryLease pins the worker's checkpoint rule: the
// lease that runs an application's golden run gets its snapshots from that
// one execution, so every lease, the first included, restores — from one
// golden run per application — and the coordinator's CSV cannot tell.
func TestWorkerRestoresOnEveryLease(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test is slow")
	}
	im, ranks := buildWavetoy(t)
	regions := []core.Region{core.RegionRegularReg, core.RegionStack}
	const injections = 6
	const seed = 9
	want := singleProcessCSV(t, im, ranks, injections, seed, regions)

	co := New(Config{})
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	if err := co.Submit(Spec{
		App: "wavetoy", Injections: injections, Seed: seed,
		Regions: []string{"reg", "stack"}, LeaseSize: injections, LeaseTTLMillis: 60_000,
	}); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var restored []int // per finished lease, in the order the worker ran them
	goldens := 0
	err := RunWorker(WorkerOptions{
		URL: srv.URL, Name: "w1", Poll: 25 * time.Millisecond,
		Logf: func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			mu.Lock()
			defer mu.Unlock()
			var lease, n, r int
			if _, err := fmt.Sscanf(line, "lease %d done (%d experiments, %d restored", &lease, &n, &r); err == nil {
				restored = append(restored, r)
			}
			if strings.HasPrefix(line, "golden run of wavetoy done") {
				goldens++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, co, time.Minute)

	if len(restored) != 2 {
		t.Fatalf("worker finished %d leases, want 2", len(restored))
	}
	for i, r := range restored {
		if r == 0 {
			t.Errorf("lease %d restored no experiment from the golden run's checkpoints", i)
		}
	}
	if goldens != 1 {
		t.Errorf("the worker ran %d golden runs of one application, want 1", goldens)
	}
	csv, _, err := co.ResultCSV()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv, want) {
		t.Fatalf("cluster CSV differs from single-process run:\n--- cluster\n%s--- single\n%s", csv, want)
	}
}

// TestDuplicateMessageResultsAgree: two workers that run the same Message
// lease — one from t=0 on one host thread, the thief restoring from
// checkpoints on eight, each against its own golden run — upload records
// that pass report.SameOutcome, protocol traps' pcs included.  Before the
// scheduler a protocol trap named the MPI call that happened to pull the
// corrupted packet in that worker's run, and a duplicate could fail the
// campaign.
func TestDuplicateMessageResultsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test is slow")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	a, err := apps.Get("minicam")
	if err != nil {
		t.Fatal(err)
	}
	im, err := a.Build(a.Default)
	if err != nil {
		t.Fatal(err)
	}
	const injections, seed = 64, 7
	cfg := core.Config{
		Image: im, Ranks: a.Default.Ranks, Injections: injections, Seed: seed,
		Regions: []core.Region{core.RegionMessage}, KeepExperiments: true,
	}
	header := report.CampaignHeader("minicam", cfg)

	clk := newFakeClock()
	co := New(Config{Metrics: telemetry.New(), Now: clk.Now})
	if err := co.Submit(Spec{
		App: "minicam", Injections: injections, Seed: seed, Regions: []string{"message"},
		LeaseSize: injections, LeaseTTLMillis: 1_000,
	}); err != nil {
		t.Fatal(err)
	}
	protocolTraps := 0
	for gen, w := range []struct {
		name     string
		procs    int
		interval uint64
	}{{"w1", 1, 0}, {"w2", 8, core.DefaultCheckpointInterval}} {
		g, ok, err := co.Acquire(w.name)
		if err != nil || !ok || g.Gen != gen+1 || len(g.Entries) != injections {
			t.Fatalf("%s acquire: %+v ok=%v err=%v", w.name, g, ok, err)
		}
		runtime.GOMAXPROCS(w.procs)
		run := cfg
		run.CheckpointInterval = w.interval
		res, err := core.Run(run)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range res.Experiments {
			if strings.Contains(e.Detail, "protocol failure") {
				protocolTraps++
			}
		}
		mustAppend(t, co, g, w.name, 0, segmentBytes(t, header, res.Experiments))
		if gen == 0 {
			clk.Advance(2 * time.Second) // w1 dies without completing
			continue
		}
		if err := co.Complete(g.Lease, g.Gen, w.name); err != nil {
			t.Fatalf("the thief's duplicates were refused: %v", err)
		}
	}
	if st := co.Status(); st.State != "complete" || st.Duplicates != injections {
		t.Fatalf("final status %+v", st)
	}
	if protocolTraps < 2 {
		t.Fatalf("%d protocol traps in two runs: the campaign does not exercise the pc that used to differ", protocolTraps)
	}
}
