// Command benchmark is the repository's one benchmark (see README.md in
// this directory and BENCHMARK.json at the repository root).
//
// It drives five named campaigns end to end through the shipped
// binaries, faultcampaign and faultcoord, checks their output, and
// reports five end-to-end metrics per workload plus the count of
// experiments that failed to classify.  A separate traced run replays a
// workload in-process through the Go API, times calls into each layer
// from outside, and reports the per-layer metrics.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh [-workload NAME] [-seed 2004] [-seconds 15]
//	                      [-trace 0|1] [-traced] [-selfcheck] [-update-expected]
//
// or, from this directory, `go run . [flags]`.  Without -workload every
// workload runs in turn.  The last line printed for each workload is one
// JSON object: {"correct":…, "attempted":…, "failed":…, "metrics":{…}}.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeed is the seed benchmark/expected/ was recorded at.
const defaultSeed = 2004

// minTrials is the fewest campaigns a run measures, however short
// -seconds is; setupRuns is how often set-up is timed after each.
const (
	minTrials = 3
	setupRuns = 3
)

// metricSpec is one metric of BENCHMARK.json.  Bound is the share of
// the earlier value by which a later one may be worse.
type metricSpec struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Better direction `json:"better"`
	Bound  float64   `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the harness reads, so names,
// units, directions and bounds are stated once.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type harness struct {
	root    string
	spec    benchSpec
	bins    binaries
	seed    uint64
	seconds float64
	// calibrate times the calibration work (calib.go).  The harness runs
	// it in a process of its own: a child's ru_maxrss starts at the
	// parent's peak, so the harness must stay smaller than the smallest
	// program it measures, and the calibration's tables are 32 MiB.
	calibrate func() (float64, error)
}

func main() {
	workloadName := flag.String("workload", "", "run only this workload (default: all five in turn)")
	seed := flag.Uint64("seed", defaultSeed, "benchmark seed; workload i runs its campaign at seed+i")
	seconds := flag.Float64("seconds", 0, "how long to measure each workload (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 runs the traced in-process replay and reports the per-layer metrics")
	traced := flag.Bool("traced", false, "same as -trace 1")
	selfcheck := flag.Bool("selfcheck", false, "measure every workload twice and fail if an end-to-end metric moves by more than its bound")
	update := flag.Bool("update-expected", false, "rewrite benchmark/expected/ from one run at the default seed")
	calibrateOnly := flag.Bool("calibrate", false, "time the calibration work once, print the seconds and exit (the harness calls itself so)")
	flag.Parse()

	if *calibrateOnly {
		fmt.Println(calibrate())
		return
	}

	if err := run(*workloadName, *seed, *seconds, *trace == 1 || *traced, *selfcheck, *update); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workloadName string, seed uint64, seconds float64, traced, selfcheck, update bool) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	h := &harness{root: root, seed: seed, seconds: seconds, calibrate: calibrateInChild}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &h.spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %v", err)
	}
	if h.seconds <= 0 {
		h.seconds = float64(h.spec.RunSeconds)
	}

	selected := workloads
	if workloadName != "" {
		i := workloadIndex(workloadName)
		if i < 0 {
			return fmt.Errorf("unknown workload %q", workloadName)
		}
		selected = workloads[i : i+1]
	}

	h.printHeader(traced)
	if traced {
		return h.runTraced(selected)
	}
	if h.bins, err = buildBinaries(root); err != nil {
		return err
	}
	switch {
	case update:
		return h.updateExpected()
	case selfcheck:
		return h.selfcheck(selected)
	}
	for _, w := range selected {
		m, err := h.measure(w)
		if err != nil {
			return fmt.Errorf("%s: %v", w.Name, err)
		}
		h.report(w, m)
	}
	return nil
}

// findRoot walks up from the working directory to the checkout root, the
// directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

// printHeader states the protocol and the host, the fingerprint every
// reported number belongs to.
func (h *harness) printHeader(traced bool) {
	protocol := fmt.Sprintf("closed loop, one campaign at a time, load fixed at -parallel 2; "+
		"each workload measured for %.0fs (at least %d campaigns); every time is scaled to the reference host speed by a fixed "+
		"calibration loop timed before and after it, and the median over the run is reported, raw median and range beside it; "+
		"setup_s is the median of %d one-experiment runs after every campaign", h.seconds, minTrials, setupRuns)
	if traced {
		protocol = "traced in-process replay through the Go API; per-layer metrics only, never end-to-end"
	}
	fmt.Printf("# protocol: %s\n", protocol)
	fmt.Printf("# host: nproc=%d cpu=%q go=%s\n", runtime.NumCPU(), cpuModel(), runtime.Version())
	fmt.Printf("# commit: %s  seed: %d\n", commit(h.root), h.seed)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the commit under test; a checkout without git metadata
// (the driver's) has none to name.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// measurement is everything one run learned about one workload.
type measurement struct {
	Trials    int
	Samples   map[string][]float64 // per end-to-end metric, one value per trial
	Attempted int                  // experiments planned, over all trials
	Failed    int                  // of those, missing from the output
}

// programSeed is the seed workload w hands its campaign: the program
// receives only flags, never the benchmark seed itself.
func (h *harness) programSeed(w workload) uint64 {
	return h.seed + uint64(workloadIndex(w.Name))
}

// A heap fault triggered before the guest's first malloc has no target,
// and faultcampaign rightly fails such a campaign.  That is a property
// of the seed, not of the code under test, so a seed whose first
// campaign leaves experiments unclassified is replaced by the next of
// seed+seedStride, seed+2*seedStride, …: the inputs stay a pure function
// of -seed, and every measured campaign classifies every experiment.
const (
	seedStride   = 1000
	maxSeedSkips = 5
)

// measure runs the workload's campaign back to back for the configured
// time, checking every campaign's output and timing set-up after each.
func (h *harness) measure(w workload) (*measurement, error) {
	return h.measureFor(w, h.seconds, minTrials)
}

func (h *harness) measureFor(w workload, seconds float64, least int) (*measurement, error) {
	dir := filepath.Join(h.root, buildDir, "run", w.Name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	m := &measurement{Samples: map[string][]float64{}}
	add := func(name string, v float64) { m.Samples[name] = append(m.Samples[name], v) }

	base := h.programSeed(w)
	seed := base
	// The one experiment of a set-up run is always the same, so set-up
	// time does not depend on which fault the benchmark seed draws.
	setupSeed := defaultSeed + uint64(workloadIndex(w.Name))
	var ref *reference
	start := time.Now()
	var calibErr error
	calibrate := func() float64 {
		c, err := h.calibrate()
		if err != nil && calibErr == nil {
			calibErr = fmt.Errorf("calibration: %v", err)
		}
		add("calibration_s", c)
		return c
	}
	calib := calibrate()
	for m.Trials < least || time.Since(start).Seconds() < seconds {
		t, err := runTrial(h.bins, w, seed, dir)
		if err != nil {
			return nil, err
		}
		if t.Unclassified > 0 {
			if m.Trials > 0 || seed >= base+maxSeedSkips*seedStride {
				return nil, fmt.Errorf("seed %d: %d experiments failed to classify", seed, t.Unclassified)
			}
			fmt.Printf("# %s: seed %d leaves %d experiments without a target; using seed %d\n",
				w.Name, seed, t.Unclassified, seed+seedStride)
			seed += seedStride
			calib = calibrate()
			continue
		}
		after := calibrate()
		scale := hostScale(calib, after)
		rows, err := parseCSV(t.CSV)
		if err != nil {
			return nil, err
		}
		if err := checkShape(w, rows, t.Stderr); err != nil {
			return nil, err
		}
		if ref == nil {
			if ref, err = h.reference(w, seed, dir, t); err != nil {
				return nil, err
			}
			// A coordinated workload's reference run took a while: the set-up
			// runs below get a bracket of their own.
			after = calibrate()
		}
		if err := ref.check(t); err != nil {
			return nil, fmt.Errorf("campaign %d: %v", m.Trials+1, err)
		}
		done := classified(rows)
		planned := w.planned()
		if w.Adaptive {
			_, planned, _, _ = parseAdaptive(t.Stderr)
		}
		m.Trials++
		m.Attempted += planned
		m.Failed += planned - done
		add("campaign_wall_s", t.WallS*scale)
		add("experiments_per_s", float64(done)/(t.WallS*scale))
		add("campaign_cpu_s", t.CPUS*scale)
		add("raw_wall_s", t.WallS)
		add("peak_rss_mb", t.RSSMB)

		// Set-up is timed between campaigns, so its samples span the same
		// stretch of host time as theirs.
		var setups []float64
		for i := 0; i < setupRuns; i++ {
			t, err := runTrial(h.bins, w.setup(), setupSeed, dir)
			if err != nil {
				return nil, fmt.Errorf("setup: %v", err)
			}
			setups = append(setups, t.WallS)
			add("setup_rss_mb", t.RSSMB)
		}
		calib = calibrate()
		for _, s := range setups {
			add("setup_s", s*hostScale(after, calib))
			add("raw_setup_s", s)
		}
		if calibErr != nil {
			return nil, calibErr
		}
	}
	return m, nil
}

// reference is the output every campaign of a run is held against.
type reference struct {
	what       string
	csv        []byte
	journalSHA string
	// exact demands byte identity of every non-message row; without it a
	// Crash/Hang classification race is tolerated (see raceTolerance).
	exact bool
}

func (r *reference) check(t *trial) error {
	if err := sameOutput(t.CSV, r.csv, r.exact); err != nil {
		return fmt.Errorf("%s: %v", r.what, err)
	}
	// A journal differs whenever its CSV does, so its hash is held to the
	// reference only where the CSV matched byte for byte.
	if r.journalSHA != "" && t.JournalSHA != r.journalSHA && (r.exact || bytes.Equal(t.CSV, r.csv)) {
		return fmt.Errorf("%s: journal SHA-256 %s, want %s", r.what, t.JournalSHA, r.journalSHA)
	}
	return nil
}

func expectedPath(root, name string) string {
	return filepath.Join(root, "benchmark", "expected", name)
}

// reference picks what a run's campaigns are compared with.  At the
// default seed it is benchmark/expected/, byte for byte.  At any other
// seed it is the run's first campaign — for a coordinated workload a
// single-process run of the same plan, executed once outside the
// measured loop — with the classification race tolerated.
func (h *harness) reference(w workload, seed uint64, dir string, first *trial) (*reference, error) {
	if seed == defaultSeed+uint64(workloadIndex(w.Name)) {
		r := &reference{what: "benchmark/expected/" + w.Name + ".csv", exact: true}
		var err error
		if r.csv, err = os.ReadFile(expectedPath(h.root, w.Name+".csv")); err != nil {
			return nil, err
		}
		if w.Journal {
			sha, err := os.ReadFile(expectedPath(h.root, w.Name+".journal.sha256"))
			if err != nil {
				return nil, err
			}
			r.journalSHA = strings.TrimSpace(string(sha))
		}
		return r, nil
	}
	if w.LeaseSize > 0 {
		single, err := runTrial(h.bins, w.singleProcess(), seed, dir)
		if err != nil {
			return nil, fmt.Errorf("single-process reference: %v", err)
		}
		return &reference{what: "single-process run of the same plan", csv: single.CSV}, nil
	}
	return &reference{what: "first campaign of the run", csv: first.CSV, journalSHA: first.JournalSHA}, nil
}

// updateExpected records benchmark/expected/ at the default seed.  A
// coordinated workload records its single-process reference, so the
// gate at the default seed is still "coordinator equals one process".
func (h *harness) updateExpected() error {
	h.seed = defaultSeed
	for _, w := range workloads {
		dir := filepath.Join(h.root, buildDir, "run", w.Name)
		if w.LeaseSize > 0 {
			w = w.singleProcess()
		}
		t, err := runTrial(h.bins, w, h.programSeed(w), dir)
		if err != nil {
			return fmt.Errorf("%s: %v", w.Name, err)
		}
		if err := os.MkdirAll(expectedPath(h.root, ""), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(expectedPath(h.root, w.Name+".csv"), t.CSV, 0o644); err != nil {
			return err
		}
		if w.Journal {
			if err := os.WriteFile(expectedPath(h.root, w.Name+".journal.sha256"), []byte(t.JournalSHA+"\n"), 0o644); err != nil {
				return err
			}
		}
		fmt.Printf("recorded benchmark/expected/%s.csv\n", w.Name)
	}
	return nil
}

// value is one metric of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object that ends a workload's output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func printResult(r result) {
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of floats and strings always marshals
	}
	fmt.Println(string(line))
}

// report prints every end-to-end metric of the workload by name with
// its unit, then the result line.
func (h *harness) report(w workload, m *measurement) {
	fmt.Printf("\n== %s: %d campaigns, %d experiments attempted, %d failed (failed_share %.4f)\n",
		w.Name, m.Trials, m.Attempted, m.Failed, float64(m.Failed)/float64(m.Attempted))
	r := result{Correct: true, Attempted: m.Attempted, Failed: m.Failed, Metrics: map[string]value{}}
	for _, ms := range h.spec.EndToEnd {
		vs := m.Samples[ms.Name]
		fmt.Printf("%-18s %12.4f %-6s (median of %d, range %.1f%% of it)\n",
			ms.Name, median(vs), ms.Unit, len(vs), 100*spread(vs))
		r.Metrics[ms.Name] = value{Value: median(vs), Unit: ms.Unit}
	}
	for _, raw := range []string{"raw_wall_s", "raw_setup_s", "calibration_s"} {
		vs := m.Samples[raw]
		fmt.Printf("%-18s %12.4f %-6s (as timed on this host; median of %d, best %.4f; informational)\n",
			raw, median(vs), "s", len(vs), best(vs, lower))
	}
	// Not gated: across seeds the peak is set by the single wildest
	// faulted guest of the campaign, so no bound could hold it.
	rss := m.Samples["peak_rss_mb"]
	fmt.Printf("%-18s %12.4f %-6s (median %.4f, n=%d; informational)\n", "peak_rss_mb", best(rss, lower), "MB", median(rss), len(rss))
	fmt.Printf("raw_wall_s per campaign:%s\n", fmtSamples(m.Samples["raw_wall_s"]))
	printResult(r)
}

func fmtSamples(vs []float64) string {
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&b, " %.3f", v)
	}
	return b.String()
}

// selfcheck measures every selected workload twice on the same code and
// fails if the two reported values of any end-to-end metric sit further
// apart than its bound, as a share of the smaller.
func (h *harness) selfcheck(selected []workload) error {
	var failures []string
	for _, w := range selected {
		var sets [2]*measurement
		for i := range sets {
			m, err := h.measure(w)
			if err != nil {
				return fmt.Errorf("%s: %v", w.Name, err)
			}
			sets[i] = m
		}
		fmt.Printf("\n== %s: two sets, %d and %d campaigns, failed %d and %d\n",
			w.Name, sets[0].Trials, sets[1].Trials, sets[0].Failed, sets[1].Failed)
		if sets[0].Failed+sets[1].Failed > 0 {
			failures = append(failures, fmt.Sprintf("%s: failed_share is not 0", w.Name))
		}
		for _, ms := range h.spec.EndToEnd {
			a, b := median(sets[0].Samples[ms.Name]), median(sets[1].Samples[ms.Name])
			gap := math.Abs(a-b) / math.Min(a, b)
			verdict := "ok"
			if gap > ms.Bound {
				verdict = "FAIL"
				failures = append(failures, fmt.Sprintf("%s %s: %.4f vs %.4f differ by %.1f%% > bound %.0f%%",
					w.Name, ms.Name, a, b, 100*gap, 100*ms.Bound))
			}
			fmt.Printf("%-18s %12.4f %12.4f %-6s apart %5.1f%%  bound %3.0f%%  %s\n",
				ms.Name, a, b, ms.Unit, 100*gap, 100*ms.Bound, verdict)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("selfcheck failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Println("\nselfcheck ok: both sets agree within every bound")
	return nil
}
