package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"mpifault/internal/apps"
	"mpifault/internal/core"
	"mpifault/internal/image"
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
	// Client is the HTTP client; nil uses a default with timeouts.
	Client *http.Client
	// Stop, when closed, makes the worker abandon its current lease
	// (in-flight experiments stop dispatching) and return.
	Stop <-chan struct{}
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// worker is the pull-based campaign engine: it acquires leases from the
// coordinator, runs their plan entries through core.Run exactly as a
// single-process campaign would, and streams the resulting journal
// bytes back.  All campaign parameters come from the lease grant, so a
// bare `faultcampaign -worker <url>` is a complete engine.
type worker struct {
	opt    WorkerOptions
	client *http.Client
	apps   map[string]*workerApp
}

// workerApp caches the expensive per-application state across leases:
// the built image and the golden reference run.
type workerApp struct {
	image  *image.Image
	golden *core.Golden
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
	w := &worker{opt: opt, client: opt.Client, apps: map[string]*workerApp{}}
	if w.client == nil {
		w.client = &http.Client{Timeout: 30 * time.Second}
	}
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

func (w *worker) postJSON(path string, body any) (*http.Response, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, w.opt.URL+path, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return w.client.Do(req)
}

type leaseRef struct {
	Worker string `json:"worker"`
	Lease  int    `json:"lease"`
	Gen    int    `json:"gen"`
	Error  string `json:"error,omitempty"`
}

func (w *worker) acquire() (grant leaseGrant, ok, done bool, err error) {
	resp, err := w.postJSON("/api/lease/acquire", leaseRef{Worker: w.opt.Name})
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
	resp, err := w.postJSON("/api/lease/fail", leaseRef{
		Worker: w.opt.Name, Lease: grant.Lease, Gen: grant.Gen, Error: cause.Error(),
	})
	if err == nil {
		resp.Body.Close()
	}
}

// app returns the cached per-application state, building it on first use.
func (w *worker) app(spec Spec) (*workerApp, error) {
	wa := w.apps[spec.App]
	if wa != nil {
		return wa, nil
	}
	a, err := apps.Get(spec.App)
	if err != nil {
		return nil, err
	}
	im, err := a.Build(a.Default)
	if err != nil {
		return nil, fmt.Errorf("build %s: %v", spec.App, err)
	}
	wa = &workerApp{image: im}
	w.apps[spec.App] = wa
	return wa, nil
}

// segmentWriter accumulates the lease's journal bytes (header line plus
// one line per finished experiment, in plan order — the identical bytes
// a single-process campaign journal would hold) and tracks how much the
// coordinator has acknowledged.
type segmentWriter struct {
	mu       sync.Mutex
	buf      []byte
	uploaded int
	err      error
}

func (s *segmentWriter) appendLine(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	s.buf = append(s.buf, line...)
	s.buf = append(s.buf, '\n')
	s.mu.Unlock()
}

// pending returns the unacknowledged suffix and its offset.
func (s *segmentWriter) pending() (off int, chunk []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.uploaded, append([]byte(nil), s.buf[s.uploaded:]...)
}

func (s *segmentWriter) ack(n int) {
	s.mu.Lock()
	if n > s.uploaded && n <= len(s.buf) {
		s.uploaded = n
	}
	s.mu.Unlock()
}

// resync resets the acknowledged mark to the coordinator's offset.
func (s *segmentWriter) resync(off int) {
	s.mu.Lock()
	if off >= 0 && off <= len(s.buf) {
		s.uploaded = off
	}
	s.mu.Unlock()
}

func (s *segmentWriter) drained() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.uploaded == len(s.buf)
}

// flush uploads the pending suffix as one chunk.  A 409 re-synchronizes
// the offset (the chunk is resent next flush); network errors are left
// for the next attempt.
func (w *worker) flush(grant leaseGrant, s *segmentWriter) error {
	off, chunk := s.pending()
	if len(chunk) == 0 {
		return nil
	}
	url := fmt.Sprintf("%s/api/segment?lease=%d&gen=%d&worker=%s&offset=%d",
		w.opt.URL, grant.Lease, grant.Gen, w.opt.Name, off)
	resp, err := w.client.Post(url, "application/jsonl", bytes.NewReader(chunk))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var ack struct {
			Offset int `json:"offset"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			return err
		}
		s.ack(ack.Offset)
		return nil
	case http.StatusConflict:
		var cur struct {
			Offset int `json:"offset"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&cur); err == nil {
			s.resync(cur.Offset)
			return nil
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("segment upload rejected: %s", bytes.TrimSpace(msg))
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("segment upload: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
}

// runLease executes one lease end to end: run the entries, stream the
// journal segment, heartbeat the lease, then complete it.  Losing the
// lease (heartbeat rejected) or opt.Stop abandons it silently — the
// coordinator re-issues it, and duplicate results resolve idempotently.
func (w *worker) runLease(grant leaseGrant) error {
	spec := grant.Spec
	wa, err := w.app(spec)
	if err != nil {
		return err
	}
	regions := make([]core.Region, len(spec.Regions))
	for i, s := range spec.Regions {
		if regions[i], err = core.ParseRegion(s); err != nil {
			return err
		}
	}
	// A lease names its entries; core.Run holds each one to the
	// campaign's region list and injection count.
	if len(grant.Entries) == 0 {
		return fmt.Errorf("lease %d names no entries", grant.Lease)
	}
	entries := make([]core.PlanEntry, len(grant.Entries))
	for i, id := range grant.Entries {
		if entries[i], err = core.ParseEntryID(id); err != nil {
			return err
		}
	}

	golden := wa.golden
	cfg := core.Config{
		Image:       wa.image,
		Ranks:       grant.Ranks,
		Injections:  spec.Injections,
		Regions:     regions,
		Seed:        spec.Seed,
		Parallelism: w.opt.Parallelism,
		Entries:     entries,
		Golden:      golden,
		TraceDiff:   spec.TraceDiff,

		// Adaptive campaigns: core.Run ignores these (the coordinator
		// asks the frontier), but the journal header derives from them,
		// so the segment this worker streams back must pin the identical
		// estimation contract the coordinator and the merge replay.
		Adaptive:        spec.Adaptive,
		Confidence:      spec.Confidence,
		TargetHalfWidth: spec.TargetHalfWidth,
		RoundSize:       spec.RoundSize,
		AVFPriors:       priorsMap(regions, spec.Priors),

		// The lease that runs the golden run gets its snapshots with it,
		// and every lease restores from them.
		CheckpointInterval: core.DefaultCheckpointInterval,
	}
	seg := &segmentWriter{}
	seg.appendLine(report.CampaignHeader(spec.App, cfg))
	cfg.OnExperiment = func(e core.Experiment) {
		seg.appendLine(report.EntryFromExperiment(e))
	}

	// Lease lost (stale heartbeat) or external stop both stop the run.
	lost := make(chan struct{})
	var lostOnce sync.Once
	stopRun := make(chan struct{})
	var stopOnce sync.Once
	closeStop := func() { stopOnce.Do(func() { close(stopRun) }) }
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
			closeStop()
		case <-lost:
			closeStop()
		case <-bg:
		}
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
				resp, err := w.postJSON("/api/lease/renew", leaseRef{Worker: w.opt.Name, Lease: grant.Lease, Gen: grant.Gen})
				if err != nil {
					continue // transient; the lease may still be renewed next beat
				}
				code := resp.StatusCode
				resp.Body.Close()
				if code == http.StatusConflict {
					lostOnce.Do(func() { close(lost) })
					return
				}
			}
		}
	}()

	flushEvery := beat
	if flushEvery > 250*time.Millisecond {
		flushEvery = 250 * time.Millisecond
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(flushEvery)
		defer tick.Stop()
		for {
			select {
			case <-bg:
				return
			case <-tick.C:
				w.flush(grant, seg) // errors retried next tick
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
		wa.golden = res.Golden
		w.logf("golden run of %s done, cached for later leases", spec.App)
		if spec.TraceDiff {
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
	if seg.err != nil {
		return seg.err
	}

	// Drain the segment, then complete the lease.
	for attempt := 0; !seg.drained(); attempt++ {
		if attempt > 50 {
			return fmt.Errorf("lease %d: segment upload did not drain", grant.Lease)
		}
		if err := w.flush(grant, seg); err != nil {
			w.logf("lease %d: flush: %v (retrying)", grant.Lease, err)
			if !w.sleep(100 * time.Millisecond) {
				return nil
			}
		}
		select {
		case <-lost:
			return nil
		default:
		}
	}
	resp, err := w.postJSON("/api/lease/complete", leaseRef{Worker: w.opt.Name, Lease: grant.Lease, Gen: grant.Gen})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		w.logf("lease %d: completion rejected (%s); coordinator will re-issue it", grant.Lease, bytes.TrimSpace(msg))
		return nil
	}
	if resp.StatusCode != http.StatusNoContent {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("complete: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var restored uint64
	if st := res.Checkpoints; st != nil {
		restored = st.Hits
	}
	so := res.Solo
	w.logf("lease %d done (%d experiments, %d restored from checkpoints, %d decided on the injected rank alone (%d correct: %d at injection, %d converged; %d failed); %d re-run: %d of %d peers materialized)",
		grant.Lease, len(entries), restored, so.Correct+so.Failed, so.Correct, so.Dead, so.Converged, so.Failed, so.Fallback, so.Materialized, so.Peers)
	return nil
}
