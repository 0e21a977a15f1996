package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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

// TestWorkerNameNeedsEscaping: a worker's name travels in the query of
// every lease request, so one holding query syntax ("a+b&c") must reach
// the coordinator intact in each of them, or its renewals, failures and
// completions never match its lease.  The first completion is held until
// the worker has heartbeated and then answered 500, so the worker fails
// the lease, runs it again and completes it.
func TestWorkerNameNeedsEscaping(t *testing.T) {
	co := New(Config{})
	if err := co.Submit(Spec{
		App: "wavetoy", Injections: 2, Seed: 5, Regions: []string{"reg"}, LeaseSize: 2, LeaseTTLMillis: 300,
	}); err != nil {
		t.Fatal(err)
	}
	const name = "a+b&c"
	var (
		mu      sync.Mutex
		named   = map[string]int{} // lease requests per path that named the worker intact
		renewed = make(chan struct{})
	)
	handler := co.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if got := r.URL.Query().Get("worker"); got != name {
			t.Errorf("%s named worker %q, want %q", r.URL.Path, got, name)
		}
		named[r.URL.Path]++
		n := named[r.URL.Path]
		mu.Unlock()
		switch {
		case r.URL.Path == "/api/lease/renew" && n == 1:
			close(renewed)
		case r.URL.Path == "/api/lease/complete" && n == 1:
			// The worker heartbeats until its completion is answered.
			select {
			case <-renewed:
			case <-time.After(time.Minute):
				t.Error("no renewal while the completion was held")
			}
			http.Error(w, "refused once", http.StatusInternalServerError)
			return
		}
		handler.ServeHTTP(w, r)
	}))
	defer srv.Close()
	stop := make(chan struct{})
	done := make(chan error, 1)
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
	mu.Lock()
	defer mu.Unlock()
	for _, path := range []string{"/api/lease/acquire", "/api/lease/renew", "/api/lease/fail", "/api/lease/complete"} {
		if named[path] == 0 {
			t.Errorf("the worker sent no %s request (%v)", path, named)
		}
	}
}

// TestOneUploadPerLease: a worker completes each lease with one request
// that carries the lease's whole journal segment — nothing before it
// uploads, nothing after it names the lease — however long the lease
// runs.  The server records every request that names a lease generation
// on its way in; the lease is sized to run well past a quarter second, so
// a worker that also uploaded on a timer would show.
func TestOneUploadPerLease(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test is slow")
	}
	const injections = 200
	co := New(Config{})
	if err := co.Submit(Spec{
		App: "minimd", Injections: injections, Seed: 3, Regions: []string{"reg", "stack"},
		LeaseSize: 2 * injections, LeaseTTLMillis: 60_000,
	}); err != nil {
		t.Fatal(err)
	}
	type leaseGen struct{ lease, gen string }
	var (
		mu        sync.Mutex
		completes = map[leaseGen][][]byte{} // completion bodies, in arrival order
		acquired  time.Time
		finished  time.Time
	)
	handler := co.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		k := leaseGen{q.Get("lease"), q.Get("gen")}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		mu.Lock()
		switch r.URL.Path {
		case "/api/lease/acquire":
			if acquired.IsZero() {
				acquired = time.Now()
			}
		case "/api/lease/renew":
			if len(completes[k]) > 0 {
				t.Errorf("lease %s gen %s: renewed after its completion", k.lease, k.gen)
			}
		case "/api/lease/complete":
			completes[k] = append(completes[k], body)
			finished = time.Now()
		default:
			t.Errorf("request to %s", r.URL.Path)
		}
		mu.Unlock()
		handler.ServeHTTP(w, r)
	}))
	defer srv.Close()

	if err := RunWorker(WorkerOptions{URL: srv.URL, Name: "w1", Parallelism: 1, Poll: 25 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if st := co.Status(); st.State != "complete" || st.Results != 2*injections {
		t.Fatalf("final status %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran := finished.Sub(acquired); ran < 300*time.Millisecond {
		t.Fatalf("the lease ran %v: too short to show a periodic upload", ran)
	}
	if len(completes) != 1 {
		t.Fatalf("completions of %d lease generations, want one", len(completes))
	}
	for k, bodies := range completes {
		if len(bodies) != 1 {
			t.Fatalf("lease %s gen %s: %d completion requests, want one", k.lease, k.gen, len(bodies))
		}
		_, exps, _, err := report.ParseSegment(bodies[0])
		if err != nil || len(exps) != 2*injections {
			t.Errorf("lease %s gen %s: the completion carried %d experiments (%v), want the whole segment's %d",
				k.lease, k.gen, len(exps), err, 2*injections)
		}
	}
}

// TestUploadResponseLost: the coordinator completes a worker's lease but
// the response never arrives.  The worker's retry is answered 409, which
// tells it the lease is no longer its to complete; it does not give the
// lease back, so nothing runs again and nothing is ingested twice.
func TestUploadResponseLost(t *testing.T) {
	co := New(Config{})
	if err := co.Submit(Spec{App: "wavetoy", Injections: 2, Seed: 5, Regions: []string{"reg"}, LeaseSize: 2}); err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		codes []int // status of every completion the coordinator answered
	)
	handler := co.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/api/lease/complete" {
			handler.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, r)
		mu.Lock()
		codes = append(codes, rec.Code)
		first := len(codes) == 1
		mu.Unlock()
		if first {
			panic(http.ErrAbortHandler) // completed, but the connection drops
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer srv.Close()
	if err := RunWorker(WorkerOptions{URL: srv.URL, Name: "w1", Poll: 25 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if st := co.Status(); st.State != "complete" || st.LeasesStolen != 0 || st.Results != 2 || st.Workers[0].Results != 2 {
		t.Fatalf("final status %+v, want the one lease's two results ingested once, by its first generation", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(codes) != 2 || codes[0] != http.StatusNoContent || codes[1] != http.StatusConflict {
		t.Fatalf("completions answered %v, want [204 409]", codes)
	}
}

// TestCoordinatorWorkerDeathByteIdentity is the acceptance gate: three
// workers, one dies mid-campaign halfway through sending a lease's
// completion, the survivors steal the lease and re-run it whole, and the
// final CSV is still byte-identical to the single-process run — with the
// spool directory, which holds only accepted segments, independently
// reconstructing the same bytes via faultmerge's path.
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

	// The doomed worker grabs the first lease, runs it, and dies halfway
	// through sending its completion, without ever heartbeating: the
	// coordinator reads a cut body and records nothing, so the lease must
	// expire and be re-run whole, and no byte of the doomed segment may
	// reach the results or the spool.
	g3, ok, err := co.Acquire("doomed")
	if err != nil || !ok {
		t.Fatalf("doomed acquire: ok=%v err=%v", ok, err)
	}
	plan := core.Plan{Regions: regions, Injections: injections}
	doomedRes, err := core.Run(core.Config{
		Image: im, Ranks: ranks, Injections: injections, Seed: seed, Regions: regions,
		Entries: plan.Range(g3.Start, g3.End), KeepExperiments: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	seg := segmentBytes(t, report.CampaignHeader("wavetoy", core.Config{
		Ranks: ranks, Injections: injections, Regions: regions, Seed: seed,
	}), doomedRes.Experiments)
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	head := fmt.Sprintf("POST /api/lease/complete?worker=doomed&lease=%d&gen=%d HTTP/1.1\r\nHost: coord\r\nContent-Length: %d\r\n\r\n",
		g3.Lease, g3.Gen, len(seg))
	if _, err := conn.Write(append([]byte(head), seg[:len(seg)/2]...)); err != nil {
		t.Fatal(err)
	}
	conn.Close() // SIGKILL equivalent: no renew, no rest of the body, no further traffic.

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
	doomed := filepath.Join(spool, fmt.Sprintf("lease-%04d.gen%d.jsonl", g3.Lease, g3.Gen))
	if _, err := os.Stat(doomed); !os.IsNotExist(err) {
		t.Fatalf("the dead generation's partial segment reached the spool (%s): %v", doomed, err)
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

// TestDuplicateMessageResultsAgree: two hosts that run the same Message
// entries — one from t=0 on one host thread, the other restoring from
// checkpoints on eight, each against its own golden run — record outcomes
// that pass report.SameOutcome, protocol traps' pcs included, so any
// worker may run any lease.  Before the scheduler a protocol trap named
// the MPI call that happened to pull the corrupted packet in that run.
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
	var runs [2]map[string]core.Experiment
	protocolTraps := 0
	for i, host := range []struct {
		procs    int
		interval uint64
	}{{1, 0}, {8, core.DefaultCheckpointInterval}} {
		runtime.GOMAXPROCS(host.procs)
		run := cfg
		run.CheckpointInterval = host.interval
		res, err := core.Run(run)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = make(map[string]core.Experiment, len(res.Experiments))
		for _, e := range res.Experiments {
			runs[i][e.ID()] = e
			if strings.Contains(e.Detail, "protocol failure") {
				protocolTraps++
			}
		}
	}
	if len(runs[0]) != injections || len(runs[1]) != injections {
		t.Fatalf("runs recorded %d and %d experiments, want %d each", len(runs[0]), len(runs[1]), injections)
	}
	for id, e := range runs[0] {
		if !report.SameOutcome(e, runs[1][id]) {
			t.Errorf("experiment %s differs between hosts:\n  1 thread, t=0:      %+v\n  8 threads, restored: %+v", id, e, runs[1][id])
		}
	}
	if protocolTraps < 2 {
		t.Fatalf("%d protocol traps in two runs: the campaign does not exercise the pc that used to differ", protocolTraps)
	}
}

// TestWorkerRunsHeaderRanksAndScale: a worker runs the campaign its
// grant's header defines — here wavetoy at 4 ranks and scale 512, which
// no Submit produces — so the segment it uploads is the journal a
// single-process core.Run of the lease's entries at those ranks and that
// scale writes, and it carries that segment as the lease's completion.
func TestWorkerRunsHeaderRanksAndScale(t *testing.T) {
	h, _, err := report.NewCampaign(report.JournalHeader{
		App: "wavetoy", Seed: 11, Injections: 6, Regions: []string{"reg", "message"}, Ranks: 4, Scale: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Ranks != 4 || h.Scale != 512 {
		t.Fatalf("header at ranks %d scale %d, want 4 and 512", h.Ranks, h.Scale)
	}
	entries := []core.PlanEntry{
		{Region: core.RegionMessage, Index: 5}, {Region: core.RegionRegularReg, Index: 0},
		{Region: core.RegionRegularReg, Index: 3}, {Region: core.RegionMessage, Index: 1},
	}
	cfg, err := h.Config(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Entries = entries
	var want []core.Experiment
	cfg.OnExperiment = func(e core.Experiment) { want = append(want, e) }
	if _, err := core.Run(cfg); err != nil {
		t.Fatal(err)
	}
	wantSeg := segmentBytes(t, h, want)

	ids := make([]string, len(entries))
	for i, pe := range entries {
		ids[i] = pe.ID()
	}
	var (
		mu      sync.Mutex
		granted bool
		got     []byte
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		switch r.URL.Path {
		case "/api/lease/acquire":
			if granted {
				w.WriteHeader(http.StatusGone)
				return
			}
			granted = true
			json.NewEncoder(w).Encode(leaseGrant{Lease: 0, Gen: 1, End: len(ids), TTLMs: 60_000, Header: h, Entries: ids})
		case "/api/lease/complete":
			got, _ = io.ReadAll(r.Body)
			w.WriteHeader(http.StatusNoContent)
		}
	}))
	defer srv.Close()
	if err := RunWorker(WorkerOptions{URL: srv.URL, Name: "w1", Poll: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(got, wantSeg) {
		t.Fatalf("the worker uploaded\n%s\nwant\n%s", got, wantSeg)
	}
}
