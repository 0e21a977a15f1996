package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mpifault/internal/apps"
	"mpifault/internal/classify"
	"mpifault/internal/core"
	"mpifault/internal/report"
	"mpifault/internal/telemetry"
)

// fakeClock is an injectable Config.Now for the lease-lifecycle tests:
// expiry becomes a deterministic Advance call instead of a sleep.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// The synthetic campaign the protocol tests run: wavetoy, two regions,
// four injections each.  No experiments actually execute — the "workers"
// upload hand-built segments — but the header must describe a real app
// because Submit validates the spec.
const (
	testSeed       = 7
	testInjections = 4
)

var testRegions = []core.Region{core.RegionRegularReg, core.RegionMessage}

func testRanks(t *testing.T) int {
	t.Helper()
	a, err := apps.Get("wavetoy")
	if err != nil {
		t.Fatal(err)
	}
	return a.Default.Ranks
}

func testSpec(leaseSize int, ttl time.Duration) Spec {
	return Spec{
		App:            "wavetoy",
		Injections:     testInjections,
		Seed:           testSeed,
		Regions:        []string{"reg", "message"},
		LeaseSize:      leaseSize,
		LeaseTTLMillis: ttl.Milliseconds(),
	}
}

func testHeader(t *testing.T) report.JournalHeader {
	t.Helper()
	return report.CampaignHeader("wavetoy", core.Config{
		Ranks:      testRanks(t),
		Injections: testInjections,
		Regions:    testRegions,
		Seed:       testSeed,
	})
}

// testExperiment fabricates the deterministic outcome of global plan
// entry g: the same g always yields the same record, mimicking the
// derived-stream determinism the duplicate resolution relies on.
func testExperiment(g int) core.Experiment {
	plan := core.Plan{Regions: testRegions, Injections: testInjections}
	pe := plan.Entry(g)
	outcomes := []classify.Outcome{classify.Correct, classify.Crash, classify.Hang, classify.Incorrect}
	return core.Experiment{
		Region:  pe.Region,
		Index:   pe.Index,
		Rank:    g % 2,
		Trigger: uint64(100 + g),
		Desc:    fmt.Sprintf("rax bit %d", g%64),
		Outcome: outcomes[g%len(outcomes)],
	}
}

// segmentBytes renders a journal segment exactly as a worker would:
// header line plus one line per experiment.
func segmentBytes(t *testing.T, h report.JournalHeader, exps []core.Experiment) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(h); err != nil {
		t.Fatal(err)
	}
	for _, e := range exps {
		if err := enc.Encode(report.EntryFromExperiment(e)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func expectedCSV(t *testing.T) []byte {
	t.Helper()
	plan := core.Plan{Regions: testRegions, Injections: testInjections}
	exps := make([]core.Experiment, plan.Total())
	for g := range exps {
		exps[g] = testExperiment(g)
	}
	res := &core.Result{
		Tallies:      core.TallyExperiments(testRegions, exps),
		Experiments:  exps,
		Unclassified: core.CountUnapplied(exps),
	}
	var buf bytes.Buffer
	report.WriteCampaignCSV(&buf, "wavetoy", res)
	return buf.Bytes()
}

func mustAppend(t *testing.T, co *Coordinator, g leaseGrant, worker string, offset int, chunk []byte) int {
	t.Helper()
	off, err := co.AppendSegment(g.Lease, g.Gen, worker, offset, chunk)
	if err != nil {
		t.Fatalf("append lease %d gen %d offset %d: %v", g.Lease, g.Gen, offset, err)
	}
	return off
}

// checkFixedGrant: a fixed-n grant names the entries it runs, and its
// Start/End is the plan range of exactly those entries.
func checkFixedGrant(t *testing.T, g leaseGrant) {
	t.Helper()
	plan := core.Plan{Regions: testRegions, Injections: testInjections}
	want := plan.Range(g.Start, g.End)
	if len(g.Entries) == 0 || len(g.Entries) != len(want) {
		t.Fatalf("grant %+v: %d entries for plan range [%d,%d)", g, len(g.Entries), g.Start, g.End)
	}
	for i, pe := range want {
		if g.Entries[i] != pe.ID() {
			t.Fatalf("grant %+v: entry %d is %s, plan range says %s", g, i, g.Entries[i], pe.ID())
		}
	}
}

// TestLeaseExpiryStealDuplicates walks the whole steal path: a worker
// uploads half its lease and dies; the sweep keeps the intact lines and
// re-queues the lease; the thief re-runs it and its overlapping results
// resolve as duplicates; the final CSV is the single-process bytes.
func TestLeaseExpiryStealDuplicates(t *testing.T) {
	clk := newFakeClock()
	co := New(Config{Metrics: telemetry.New(), Now: clk.Now})
	if err := co.Submit(testSpec(4, time.Second)); err != nil {
		t.Fatal(err)
	}
	h := testHeader(t)

	g1, ok, err := co.Acquire("w1")
	if err != nil || !ok {
		t.Fatalf("acquire: ok=%v err=%v", ok, err)
	}
	if g1.Lease != 0 || g1.Start != 0 || g1.End != 4 || g1.Gen != 1 {
		t.Fatalf("unexpected first grant %+v", g1)
	}
	checkFixedGrant(t, g1)
	// Half the lease arrives, then w1 goes silent.
	partial := segmentBytes(t, h, []core.Experiment{testExperiment(0), testExperiment(1)})
	mustAppend(t, co, g1, "w1", 0, partial)
	if err := co.Renew(g1.Lease, g1.Gen, "w1"); err != nil {
		t.Fatalf("renew before expiry: %v", err)
	}
	clk.Advance(600 * time.Millisecond)
	if err := co.Renew(g1.Lease, g1.Gen, "w1"); err != nil {
		t.Fatalf("renewed lease must stay live: %v", err)
	}
	clk.Advance(1100 * time.Millisecond)

	// w2 arrives after the deadline: the sweep must have ingested the
	// partial segment and re-queued lease 0 behind lease 1.
	g2, ok, err := co.Acquire("w2")
	if err != nil || !ok {
		t.Fatalf("acquire after expiry: ok=%v err=%v", ok, err)
	}
	if g2.Lease != 1 {
		t.Fatalf("expected lease 1 first from the queue, got %d", g2.Lease)
	}
	checkFixedGrant(t, g2)
	if st := co.Status(); st.Results != 2 {
		t.Fatalf("partial segment not ingested: %d results", st.Results)
	}
	if err := co.Renew(g1.Lease, g1.Gen, "w1"); err == nil {
		t.Fatal("stale renew of an expired lease must fail")
	}
	if _, err := co.AppendSegment(g1.Lease, g1.Gen, "w1", len(partial), []byte("x\n")); err == nil {
		t.Fatal("stale upload to an expired generation must fail")
	}

	g3, ok, err := co.Acquire("w2")
	if err != nil || !ok {
		t.Fatalf("steal acquire: ok=%v err=%v", ok, err)
	}
	if g3.Lease != 0 || g3.Gen != 2 {
		t.Fatalf("expected stolen lease 0 gen 2, got %+v", g3)
	}
	checkFixedGrant(t, g3)
	if st := co.Status(); st.LeasesStolen != 1 {
		t.Fatalf("stolen count = %d, want 1", st.LeasesStolen)
	}

	// The thief re-runs the whole lease: entries 0 and 1 are duplicates
	// and must agree; 2 and 3 are new.
	full0 := segmentBytes(t, h, []core.Experiment{
		testExperiment(0), testExperiment(1), testExperiment(2), testExperiment(3),
	})
	mustAppend(t, co, g3, "w2", 0, full0)
	if err := co.Complete(g3.Lease, g3.Gen, "w2"); err != nil {
		t.Fatalf("complete stolen lease: %v", err)
	}
	full1 := segmentBytes(t, h, []core.Experiment{
		testExperiment(4), testExperiment(5), testExperiment(6), testExperiment(7),
	})
	mustAppend(t, co, g2, "w2", 0, full1)
	if err := co.Complete(g2.Lease, g2.Gen, "w2"); err != nil {
		t.Fatalf("complete lease 1: %v", err)
	}

	st := co.Status()
	if st.State != "complete" || st.Duplicates != 2 || st.Results != 8 {
		t.Fatalf("final status %+v", st)
	}
	select {
	case <-co.Done():
	default:
		t.Fatal("Done channel not closed after completion")
	}
	csv, unclassified, err := co.ResultCSV()
	if err != nil || unclassified != 0 {
		t.Fatalf("ResultCSV: unclassified=%d err=%v", unclassified, err)
	}
	if want := expectedCSV(t); !bytes.Equal(csv, want) {
		t.Fatalf("coordinator CSV differs from single-process bytes:\n--- got\n%s--- want\n%s", csv, want)
	}
}

// TestDuplicateDisagreementFailsCampaign: a stolen lease's re-run must
// reproduce the dead owner's uploaded outcomes bit for bit; a
// disagreement means determinism broke and the campaign fails loudly.
func TestDuplicateDisagreementFailsCampaign(t *testing.T) {
	clk := newFakeClock()
	co := New(Config{Metrics: telemetry.New(), Now: clk.Now})
	if err := co.Submit(testSpec(8, time.Second)); err != nil {
		t.Fatal(err)
	}
	h := testHeader(t)

	g1, ok, err := co.Acquire("w1")
	if err != nil || !ok {
		t.Fatalf("acquire: ok=%v err=%v", ok, err)
	}
	all := make([]core.Experiment, 8)
	for g := range all {
		all[g] = testExperiment(g)
	}
	mustAppend(t, co, g1, "w1", 0, segmentBytes(t, h, all))
	clk.Advance(2 * time.Second) // w1 dies without completing

	g2, ok, err := co.Acquire("w2")
	if err != nil || !ok || g2.Gen != 2 {
		t.Fatalf("steal acquire: %+v ok=%v err=%v", g2, ok, err)
	}
	flipped := make([]core.Experiment, len(all))
	copy(flipped, all)
	flipped[3].Outcome = classify.MPIDetected // disagrees with w1's upload
	mustAppend(t, co, g2, "w2", 0, segmentBytes(t, h, flipped))
	if err := co.Complete(g2.Lease, g2.Gen, "w2"); err == nil {
		t.Fatal("disagreeing duplicate must fail completion")
	}
	st := co.Status()
	if st.State != "failed" || !strings.Contains(st.Error, "not deterministic") {
		t.Fatalf("status after disagreement: %+v", st)
	}
	select {
	case <-co.Done():
	default:
		t.Fatal("Done channel not closed on failure")
	}
	if _, _, err := co.Acquire("w3"); err == nil {
		t.Fatal("acquire on a failed campaign must error so workers exit")
	}
}

// TestSegmentResume: chunks address exact byte offsets, so a chunk cut
// anywhere — even mid-line — resumes where it left off, and a replayed
// chunk is rejected with the authoritative offset instead of corrupting
// the segment.
func TestSegmentResume(t *testing.T) {
	co := New(Config{Metrics: telemetry.New(), Now: newFakeClock().Now})
	if err := co.Submit(testSpec(8, time.Minute)); err != nil {
		t.Fatal(err)
	}
	all := make([]core.Experiment, 8)
	for g := range all {
		all[g] = testExperiment(g)
	}
	full := segmentBytes(t, testHeader(t), all)

	g1, ok, err := co.Acquire("w1")
	if err != nil || !ok {
		t.Fatalf("acquire: ok=%v err=%v", ok, err)
	}
	cut := len(full)/2 + 3 // deliberately mid-line
	if off := mustAppend(t, co, g1, "w1", 0, full[:cut]); off != cut {
		t.Fatalf("first chunk ack offset %d, want %d", off, cut)
	}
	// Replay of the first chunk (lost ack): rejected, current offset returned.
	off, err := co.AppendSegment(g1.Lease, g1.Gen, "w1", 0, full[:cut])
	if err != errOffsetMismatch || off != cut {
		t.Fatalf("replayed chunk: off=%d err=%v", off, err)
	}
	// A gap (skipped bytes) is rejected the same way.
	if _, err := co.AppendSegment(g1.Lease, g1.Gen, "w1", cut+5, full[cut:]); err != errOffsetMismatch {
		t.Fatalf("gapped chunk: err=%v", err)
	}
	if off, err := co.SegmentOffset(g1.Lease, g1.Gen); err != nil || off != cut {
		t.Fatalf("SegmentOffset=%d err=%v, want %d", off, err, cut)
	}
	if off := mustAppend(t, co, g1, "w1", cut, full[cut:]); off != len(full) {
		t.Fatalf("resume ack offset %d, want %d", off, len(full))
	}
	if err := co.Complete(g1.Lease, g1.Gen, "w1"); err != nil {
		t.Fatalf("complete: %v", err)
	}
	csv, _, err := co.ResultCSV()
	if err != nil {
		t.Fatal(err)
	}
	if want := expectedCSV(t); !bytes.Equal(csv, want) {
		t.Fatal("resumed segment produced different CSV bytes")
	}
}

// TestIncompleteSegmentRequeues: completing a lease whose segment misses
// entries returns it to the queue instead of losing the range.
func TestIncompleteSegmentRequeues(t *testing.T) {
	clk := newFakeClock()
	co := New(Config{Metrics: telemetry.New(), Now: clk.Now})
	if err := co.Submit(testSpec(8, time.Minute)); err != nil {
		t.Fatal(err)
	}
	g1, ok, err := co.Acquire("w1")
	if err != nil || !ok {
		t.Fatalf("acquire: ok=%v err=%v", ok, err)
	}
	short := segmentBytes(t, testHeader(t), []core.Experiment{testExperiment(0)})
	mustAppend(t, co, g1, "w1", 0, short)
	if err := co.Complete(g1.Lease, g1.Gen, "w1"); err == nil {
		t.Fatal("complete with a short segment must fail")
	}
	g2, ok, err := co.Acquire("w2")
	if err != nil || !ok || g2.Lease != 0 || g2.Gen != 2 {
		t.Fatalf("requeued lease not re-granted: %+v ok=%v err=%v", g2, ok, err)
	}
	if st := co.Status(); st.LeasesStolen != 1 {
		t.Fatalf("requeue-after-bad-complete should count as stolen, status %+v", st)
	}
}

// TestWorkerJoinsAfterQueueDrains: an empty queue is a "poll again"
// answer, not campaign end — the late worker inherits expired leases.
func TestWorkerJoinsAfterQueueDrains(t *testing.T) {
	clk := newFakeClock()
	co := New(Config{Metrics: telemetry.New(), Now: clk.Now})
	if err := co.Submit(testSpec(8, time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := co.Acquire("w1"); err != nil || !ok {
		t.Fatalf("acquire: ok=%v err=%v", ok, err)
	}
	// The queue is drained but the campaign is live: w2 must be told to
	// poll (no grant, no error).
	if _, ok, err := co.Acquire("w2"); ok || err != nil {
		t.Fatalf("drained queue: ok=%v err=%v, want poll-again", ok, err)
	}
	clk.Advance(2 * time.Second)
	g, ok, err := co.Acquire("w2")
	if err != nil || !ok || g.Lease != 0 || g.Gen != 2 {
		t.Fatalf("late worker did not inherit the expired lease: %+v ok=%v err=%v", g, ok, err)
	}
}

// TestRepeatedFailuresFailCampaign: a deterministically unrunnable lease
// must surface as campaign failure, not retry forever.
func TestRepeatedFailuresFailCampaign(t *testing.T) {
	co := New(Config{Metrics: telemetry.New(), Now: newFakeClock().Now, MaxLeaseFailures: 3})
	if err := co.Submit(testSpec(8, time.Minute)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		g, ok, err := co.Acquire("w1")
		if err != nil {
			break
		}
		if !ok {
			t.Fatalf("round %d: no lease", i)
		}
		if err := co.Fail(g.Lease, g.Gen, "w1", "image build exploded"); err != nil {
			t.Fatalf("fail: %v", err)
		}
	}
	st := co.Status()
	if st.State != "failed" || !strings.Contains(st.Error, "image build exploded") {
		t.Fatalf("status after repeated failures: %+v", st)
	}
}

// TestSubmitRejectsUnknownFields: a spec field this version does not know
// — an option it no longer runs, or a misspelling — is a 400 naming the
// field, and no campaign is installed.
func TestSubmitRejectsUnknownFields(t *testing.T) {
	co := New(Config{Metrics: telemetry.New(), Now: newFakeClock().Now})
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()

	for field, body := range map[string]string{
		"equivalence": `{"app":"wavetoy","injections":8,"seed":3,"regions":["reg"],"equivalence":"prune"}`,
		"injection":   `{"app":"wavetoy","injection":8,"seed":3}`,
	} {
		resp, err := http.Post(srv.URL+"/api/campaign", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg := new(bytes.Buffer)
		msg.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.String(), `"`+field+`"`) {
			t.Errorf("spec with %q: %s %q; want 400 naming the field", field, resp.Status, msg)
		}
	}
	resp, err := http.Get(srv.URL + "/api/campaign")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("a rejected spec installed a campaign: GET /api/campaign %s", resp.Status)
	}
	data, err := json.Marshal(testSpec(8, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err = http.Post(srv.URL+"/api/campaign", "application/json", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("a known spec after the rejections: %s", resp.Status)
	}
}

// TestHandlerProtocol drives the HTTP surface end to end with hand-built
// segments: submit, acquire, renew fencing, offset negotiation over the
// wire, completion, and the status/result/metrics documents.
func TestHandlerProtocol(t *testing.T) {
	co := New(Config{Metrics: telemetry.New(), Now: newFakeClock().Now})
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()

	postJSON := func(path string, body any) *http.Response {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Before submission: /status says waiting, acquire says poll again.
	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != "waiting" {
		t.Fatalf("pre-submission state %q", st.State)
	}
	resp = postJSON("/api/lease/acquire", map[string]string{"worker": "w1"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("acquire before campaign: %s", resp.Status)
	}

	resp = postJSON("/api/campaign", testSpec(8, time.Minute))
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s", resp.Status)
	}
	resp = postJSON("/api/campaign", testSpec(8, time.Minute))
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second submit must 409, got %s", resp.Status)
	}

	resp = postJSON("/api/lease/acquire", map[string]string{"worker": "w1"})
	var grant leaseGrant
	if err := json.NewDecoder(resp.Body).Decode(&grant); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || grant.End != 8 || grant.Spec.App != "wavetoy" {
		t.Fatalf("grant %+v (%s)", grant, resp.Status)
	}
	if len(grant.Spec.Regions) != 2 {
		t.Fatalf("grant spec regions %v, want the normalized short names", grant.Spec.Regions)
	}

	// Renew with a stale generation is a 409.
	resp = postJSON("/api/lease/renew", map[string]any{"worker": "w1", "lease": grant.Lease, "gen": grant.Gen + 7})
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale renew: %s", resp.Status)
	}

	all := make([]core.Experiment, 8)
	for g := range all {
		all[g] = testExperiment(g)
	}
	full := segmentBytes(t, testHeader(t), all)
	cut := len(full) / 3

	segURL := func(offset int) string {
		return fmt.Sprintf("%s/api/segment?lease=%d&gen=%d&worker=w1&offset=%d", srv.URL, grant.Lease, grant.Gen, offset)
	}
	resp, err = http.Post(segURL(0), "application/jsonl", bytes.NewReader(full[:cut]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first chunk: %s", resp.Status)
	}
	// Wrong offset: 409 carrying the authoritative offset.
	resp, err = http.Post(segURL(0), "application/jsonl", bytes.NewReader(full[:cut]))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("replayed chunk: %s", resp.Status)
	}
	var cur struct {
		Offset int `json:"offset"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cur.Offset != cut {
		t.Fatalf("409 offset %d, want %d", cur.Offset, cut)
	}
	// GET resyncs the same way, then the upload resumes.
	resp, err = http.Get(fmt.Sprintf("%s/api/segment?lease=%d&gen=%d", srv.URL, grant.Lease, grant.Gen))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cur.Offset != cut {
		t.Fatalf("GET offset %d, want %d", cur.Offset, cut)
	}
	resp, err = http.Post(segURL(cut), "application/jsonl", bytes.NewReader(full[cut:]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resumed chunk: %s", resp.Status)
	}

	// /result.csv is a 409 until the campaign completes.
	resp, err = http.Get(srv.URL + "/result.csv")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("premature result.csv: %s", resp.Status)
	}

	resp = postJSON("/api/lease/complete", map[string]any{"worker": "w1", "lease": grant.Lease, "gen": grant.Gen})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("complete: %s", resp.Status)
	}
	resp = postJSON("/api/lease/acquire", map[string]string{"worker": "w2"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("acquire after completion must 410, got %s", resp.Status)
	}

	resp, err = http.Get(srv.URL + "/result.csv")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body.Bytes(), expectedCSV(t)) {
		t.Fatalf("result.csv (%s) differs from single-process bytes", resp.Status)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body.Reset()
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, want := range []string{telemetry.MetricCoordResults, telemetry.MetricCoordLeasesCompleted, "mpifault_coord_worker_results_total"} {
		if !strings.Contains(body.String(), want) {
			t.Fatalf("/metrics missing %s:\n%s", want, body.String())
		}
	}
}

// TestHeartbeatRenewalRace hammers the coordinator's mutating endpoints
// from many goroutines with a real clock and a tiny TTL, so renewals,
// expiry sweeps, uploads and steals interleave — the -race build is the
// assertion.
func TestHeartbeatRenewalRace(t *testing.T) {
	co := New(Config{Metrics: telemetry.New()})
	spec := testSpec(1, 20*time.Millisecond) // 8 one-entry leases, aggressive expiry
	if err := co.Submit(spec); err != nil {
		t.Fatal(err)
	}
	h := testHeader(t)

	deadline := time.Now().Add(400 * time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				g, ok, err := co.Acquire(name)
				if err != nil {
					return // campaign finished or failed; both fine here
				}
				if !ok {
					time.Sleep(time.Millisecond)
					continue
				}
				seg := segmentBytes(t, h, []core.Experiment{testExperiment(g.Start)})
				for off := 0; off < len(seg); off += 16 {
					end := off + 16
					if end > len(seg) {
						end = len(seg)
					}
					co.Renew(g.Lease, g.Gen, name)
					if _, err := co.AppendSegment(g.Lease, g.Gen, name, off, seg[off:end]); err != nil {
						break // lease stolen mid-upload; let it go
					}
				}
				co.Complete(g.Lease, g.Gen, name)
			}
		}(fmt.Sprintf("w%d", i))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			co.Status()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	if st := co.Status(); st.State == "failed" {
		t.Fatalf("race hammer failed the campaign: %s", st.Error)
	}
}
