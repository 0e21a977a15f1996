package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"mpifault/internal/core"
	"mpifault/internal/msgtrace"
	"mpifault/internal/report"
)

// WorkerOptions parameterizes RunWorker.
type WorkerOptions struct {
	// URL is the coordinator base URL (e.g. http://127.0.0.1:8700).
	URL string
	// Name identifies the worker in leases and the cluster view.
	Name string
	// Parallelism is handed to core.Config; 0 picks the default.
	Parallelism int
	// Poll is the backoff between acquire attempts when no lease is
	// available; 0 means 300ms.  A worker that joins after the queue
	// drains keeps polling: leases return via expiry, and the campaign
	// end is an explicit protocol answer, not an empty queue.
	Poll time.Duration
	// Stop, when closed, makes the worker abandon its current lease
	// (in-flight experiments stop dispatching) and return.
	Stop <-chan struct{}
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// worker is the pull-based campaign engine: it acquires leases from the
// coordinator, runs their plan entries through core.Run exactly as a
// single-process campaign would, and completes each lease with one
// request that carries its journal segment.  All campaign parameters come
// from the lease grant, so a bare `faultcampaign -worker <url>` is a
// complete engine.
type worker struct {
	opt    WorkerOptions
	client *http.Client
	// header is the campaign of the last grant and cfg the run it defines
	// (report.JournalHeader.Config), kept across that campaign's leases
	// with the golden run the first of them paid for.
	header report.JournalHeader
	cfg    *core.Config
}

// maxConsecutiveAcquireFailures bounds how long a worker retries an
// unreachable coordinator before giving up: a coordinator restart rides
// out the window, a gone-for-good one (completed with -wait, crashed)
// doesn't strand the worker in a forever-poll.
const maxConsecutiveAcquireFailures = 50

// RunWorker runs the worker loop until the campaign completes (or
// fails), or opt.Stop closes.  Transient coordinator unavailability is
// retried with a bound; only campaign termination ends the loop cleanly.
func RunWorker(opt WorkerOptions) error {
	if opt.Name == "" {
		return fmt.Errorf("coord: worker needs a name")
	}
	if opt.Poll <= 0 {
		opt.Poll = 300 * time.Millisecond
	}
	w := &worker{opt: opt, client: &http.Client{Timeout: 30 * time.Second}}
	failures := 0
	for {
		select {
		case <-opt.Stop:
			return nil
		default:
		}
		grant, ok, done, err := w.acquire()
		switch {
		case done:
			w.logf("campaign finished; exiting")
			return nil
		case err != nil:
			failures++
			if failures >= maxConsecutiveAcquireFailures {
				return fmt.Errorf("coordinator unreachable after %d attempts: %v", failures, err)
			}
			w.logf("acquire: %v (retrying)", err)
			if !w.sleep(opt.Poll) {
				return nil
			}
		case !ok:
			failures = 0
			if !w.sleep(opt.Poll) {
				return nil
			}
		default:
			failures = 0
			if err := w.runLease(grant); err != nil {
				w.logf("lease %d: %v", grant.Lease, err)
				w.fail(grant, err)
				if !w.sleep(opt.Poll) {
					return nil
				}
			}
		}
	}
}

func (w *worker) logf(format string, args ...any) {
	if w.opt.Logf != nil {
		w.opt.Logf(format, args...)
	}
}

// sleep waits d or until Stop; false means Stop fired.
func (w *worker) sleep(d time.Duration) bool {
	select {
	case <-w.opt.Stop:
		return false
	case <-time.After(d):
		return true
	}
}

// post sends one lease request: the worker, lease and generation in the
// query (acquire, with no grant yet, names only the worker) and body as
// its content.
func (w *worker) post(path string, grant leaseGrant, body []byte) (*http.Response, error) {
	q := url.Values{"worker": {w.opt.Name}}
	if grant.Gen > 0 {
		q.Set("lease", strconv.Itoa(grant.Lease))
		q.Set("gen", strconv.Itoa(grant.Gen))
	}
	return w.client.Post(w.opt.URL+path+"?"+q.Encode(), "application/octet-stream", bytes.NewReader(body))
}

func (w *worker) acquire() (grant leaseGrant, ok, done bool, err error) {
	resp, err := w.post("/api/lease/acquire", leaseGrant{}, nil)
	if err != nil {
		return grant, false, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		if err := json.NewDecoder(resp.Body).Decode(&grant); err != nil {
			return grant, false, false, err
		}
		return grant, true, false, nil
	case http.StatusNoContent:
		return grant, false, false, nil
	case http.StatusGone:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		w.logf("coordinator: %s", bytes.TrimSpace(msg))
		return grant, false, true, nil
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return grant, false, false, fmt.Errorf("acquire: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
}

func (w *worker) fail(grant leaseGrant, cause error) {
	resp, err := w.post("/api/lease/fail", grant, []byte(cause.Error()))
	if err == nil {
		resp.Body.Close()
	}
}

// maxCompleteAttempts bounds how often a completion that failed in
// transit is retried before the lease is given back.
const maxCompleteAttempts = 3

// complete sends the lease's whole journal segment as its completion,
// retrying one that failed in transit, and reports whether the
// coordinator accepted it.  A 409 means this generation no longer holds
// the lease: an earlier attempt completed it and only its response was
// lost, or the coordinator re-queued it to be run again whole.  Either
// way there is nothing left for this worker to do with it.
func (w *worker) complete(grant leaseGrant, seg []byte) (bool, error) {
	for attempt := 1; ; attempt++ {
		resp, err := w.post("/api/lease/complete", grant, seg)
		if err != nil {
			if attempt == maxCompleteAttempts || !w.sleep(w.opt.Poll) {
				return false, err
			}
			continue
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusNoContent:
			return true, nil
		case http.StatusConflict:
			w.logf("lease %d: completion answered %s (%s): completed by an earlier attempt, or re-issued by the coordinator",
				grant.Lease, resp.Status, bytes.TrimSpace(msg))
			return false, nil
		}
		return false, fmt.Errorf("complete: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
}

// runLease executes one lease end to end: run the entries while
// heartbeating the lease, then complete it with the journal segment.
// Losing the lease (heartbeat rejected) or opt.Stop abandons it silently
// — the coordinator re-issues it whole.
func (w *worker) runLease(grant leaseGrant) error {
	h := grant.Header
	// A lease names its entries; core.Run holds each one to the
	// campaign's region list and injection count (an adaptive campaign's
	// fixed-n cap), and runs exactly them, whether the campaign is fixed-n
	// or adaptive.
	if len(grant.Entries) == 0 {
		return fmt.Errorf("lease %d names no entries", grant.Lease)
	}
	entries := make([]core.PlanEntry, len(grant.Entries))
	for i, id := range grant.Entries {
		var err error
		if entries[i], err = core.ParseEntryID(id); err != nil {
			return err
		}
	}
	if w.cfg == nil || !h.SameCampaign(w.header) {
		cfg, err := h.Config(nil)
		if err != nil {
			return err
		}
		w.header, w.cfg = h, &cfg
	}
	cfg := *w.cfg
	golden := cfg.Golden
	cfg.Parallelism, cfg.Entries, cfg.TraceDiff = w.opt.Parallelism, entries, grant.TraceDiff
	// The lease that runs the golden run gets its snapshots with it, and
	// every lease restores from them.
	cfg.CheckpointInterval = core.DefaultCheckpointInterval
	// The segment opens with the coordinator's header, verbatim: the
	// campaign definition is built once, in Submit.  OnExperiment calls
	// are serialized and in plan order: the bytes of a journal.
	var seg bytes.Buffer
	enc := json.NewEncoder(&seg)
	encErr := enc.Encode(h)
	cfg.OnExperiment = func(e core.Experiment) {
		if err := enc.Encode(report.EntryFromExperiment(e)); err != nil && encErr == nil {
			encErr = err
		}
	}

	// Lease lost (stale heartbeat) or external stop both stop the run.
	lost := make(chan struct{}) // closed by the heartbeat
	stopRun := make(chan struct{})
	cfg.Stop = stopRun
	bg := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(bg)
		wg.Wait()
	}()
	go func() {
		select {
		case <-w.opt.Stop:
		case <-lost:
		case <-bg:
			return
		}
		close(stopRun)
	}()

	ttl := time.Duration(grant.TTLMs) * time.Millisecond
	beat := ttl / 3
	if beat < 20*time.Millisecond {
		beat = 20 * time.Millisecond
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(beat)
		defer tick.Stop()
		for {
			select {
			case <-bg:
				return
			case <-tick.C:
				resp, err := w.post("/api/lease/renew", grant, nil)
				if err != nil {
					continue // transient; the lease may still be renewed next beat
				}
				code := resp.StatusCode
				resp.Body.Close()
				if code == http.StatusConflict {
					close(lost)
					return
				}
			}
		}
	}()

	res, err := core.Run(cfg)
	if err != nil {
		return err
	}
	if golden == nil && res.Golden != nil {
		// This lease paid for the reference run; cache it for the app's
		// later leases.  The digest line makes the golden-trace identity —
		// the hash of its tapes — externally checkable: every worker of a
		// trace-diff campaign must log the same hash, and it must match a
		// single-process `faultcampaign -trace-out` of the same spec.
		w.cfg.Golden = res.Golden
		w.logf("golden run of %s done, cached for later leases", h.App)
		if grant.TraceDiff {
			tapes := res.Golden.Result.Tapes
			w.logf("golden trace digest %016x (%d messages across %d ranks)",
				msgtrace.Hash(tapes), msgtrace.Messages(tapes), len(tapes))
		}
	}

	select {
	case <-lost:
		w.logf("lease %d gen %d expired under us; abandoning", grant.Lease, grant.Gen)
		return nil
	case <-w.opt.Stop:
		return nil
	default:
	}
	if res.Interrupted {
		return nil
	}
	if encErr != nil {
		return encErr
	}
	if ok, err := w.complete(grant, seg.Bytes()); !ok {
		return err
	}
	var restored uint64
	if st := res.Checkpoints; st != nil {
		restored = st.Hits
	}
	so := res.Solo
	w.logf("lease %d done (%d experiments, %d restored from checkpoints, %d decided on the injected rank alone (%d correct: %d at injection, %d converged; %d failed; %d deadlocked); %d re-run: %d of %d peers materialized)",
		grant.Lease, len(entries), restored, so.Decided(), so.Correct, so.Dead, so.Converged, so.Failed, so.Deadlock, so.Fallback, so.Materialized, so.Peers)
	return nil
}
