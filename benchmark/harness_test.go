package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

const sampleCSV = csvHeader + `
wavetoy,Regular Reg.,80,39,48.75,24,3,12,0,0,41
wavetoy,Heap,80,1,1.25,0,0,1,0,0,79
wavetoy,Message,80,8,10.00,0,5,3,0,0,72

`

func TestParseCSV(t *testing.T) {
	rows, err := parseCSV([]byte(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || classified(rows) != 240 {
		t.Fatalf("got %d rows, %d executions", len(rows), classified(rows))
	}
	want := csvRow{Line: "wavetoy,Regular Reg.,80,39,48.75,24,3,12,0,0,41", Region: "Regular Reg.",
		Executions: 80, Errors: 39, ErrorRate: 48.75, Outcomes: [6]int{24, 3, 12, 0, 0, 41}}
	if !reflect.DeepEqual(rows[0], want) {
		t.Errorf("row 0 = %+v, want %+v", rows[0], want)
	}
	for _, bad := range []string{
		"",
		"app,region\nx,y\n",
		csvHeader + "\nwavetoy,Heap,80,1,1.25,0,0,1,0,0\n",
		csvHeader + "\nwavetoy,Heap,eighty,1,1.25,0,0,1,0,0,79\n",
	} {
		if _, err := parseCSV([]byte(bad)); err == nil {
			t.Errorf("parseCSV(%q) accepted malformed input", bad)
		}
	}
}

func TestParseStderr(t *testing.T) {
	if n := parseUnclassified([]byte("faultcampaign: 3 experiments failed to classify (no fault was applied); results are incomplete\n")); n != 3 {
		t.Errorf("unclassified = %d, want 3", n)
	}
	if n := parseUnclassified([]byte("worker w1: lease 3 done\n")); n != 0 {
		t.Errorf("unclassified = %d on a clean stderr", n)
	}
	rounds, executed, fixed, ok := parseAdaptive([]byte(
		"wavetoy: adaptive stopping converged in 5 rounds: 1118 experiments vs 3200 fixed-n (0.35x of the worst case)\n"))
	if !ok || rounds != 5 || executed != 1118 || fixed != 3200 {
		t.Errorf("adaptive = %d %d %d %v", rounds, executed, fixed, ok)
	}
	if _, _, _, ok := parseAdaptive(nil); ok {
		t.Error("parseAdaptive found a summary in empty stderr")
	}
}

func TestCheckShape(t *testing.T) {
	w := workload{N: 80, Regions: []string{"reg", "heap", "message"}}
	rows, _ := parseCSV([]byte(sampleCSV))
	if err := checkShape(w, rows, nil); err != nil {
		t.Errorf("valid output rejected: %v", err)
	}
	w.N = 81
	if err := checkShape(w, rows, nil); err == nil {
		t.Error("executions != planned accepted")
	}
	w.N = 80
	short := rows[:2]
	if err := checkShape(w, short, nil); err == nil {
		t.Error("missing region row accepted")
	}
	broken := append([]csvRow(nil), rows...)
	broken[1].Outcomes[5]--
	if err := checkShape(w, broken, nil); err == nil {
		t.Error("outcome columns not summing to executions accepted")
	}

	a := workload{Adaptive: true, Regions: []string{"reg", "heap", "message"}}
	summary := func(executed int) []byte {
		return []byte("x: adaptive stopping converged in 2 rounds: " + strconv.Itoa(executed) + " experiments vs 1200 fixed-n\n")
	}
	if err := checkShape(a, rows, summary(240)); err != nil {
		t.Errorf("valid adaptive output rejected: %v", err)
	}
	if err := checkShape(a, rows, summary(241)); err == nil {
		t.Error("adaptive rows not adding up to the reported count accepted")
	}
	if err := checkShape(a, rows, nil); err == nil {
		t.Error("adaptive output without its stderr summary accepted")
	}
}

func TestSameOutput(t *testing.T) {
	swap := func(old, new string) []byte { return []byte(strings.Replace(sampleCSV, old, new, 1)) }
	want := []byte(sampleCSV)
	msgNear := swap("80,8,10.00,0,5,3,0,0,72", "80,11,13.75,0,7,4,0,0,69")
	msgFar := swap("80,8,10.00,0,5,3,0,0,72", "80,13,16.25,0,9,4,0,0,67")
	raced := swap("80,39,48.75,24,3,12,0,0,41", "80,39,48.75,23,4,12,0,0,41")      // one Crash read as Hang
	racedFar := swap("80,39,48.75,24,3,12,0,0,41", "80,39,48.75,21,6,12,0,0,41")   // three of them
	manifested := swap("80,39,48.75,24,3,12,0,0,41", "80,40,50.00,25,3,12,0,0,40") // one more error

	for _, c := range []struct {
		name  string
		got   []byte
		exact bool
		ok    bool
	}{
		{"identical, exact", want, true, true},
		{"message 3.75 points off, exact", msgNear, true, true},
		{"message 6.25 points off", msgFar, false, false},
		{"crash/hang race, exact", raced, true, false},
		{"crash/hang race, tolerant", raced, false, true},
		{"three races, tolerant", racedFar, false, false},
		{"different error count, tolerant", manifested, false, false},
	} {
		if err := sameOutput(c.got, want, c.exact); (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	if err := sameOutput(want[:len(csvHeader)+1], want, false); err == nil {
		t.Error("missing rows accepted")
	}
}

func TestReferenceJournal(t *testing.T) {
	ref := &reference{what: "ref", csv: []byte(sampleCSV), journalSHA: "aa"}
	if err := ref.check(&trial{CSV: []byte(sampleCSV), JournalSHA: "aa"}); err != nil {
		t.Errorf("matching journal rejected: %v", err)
	}
	if err := ref.check(&trial{CSV: []byte(sampleCSV), JournalSHA: "bb"}); err == nil {
		t.Error("identical CSV with a different journal accepted")
	}
	raced := []byte(strings.Replace(sampleCSV, "80,39,48.75,24,3,12,0,0,41", "80,39,48.75,23,4,12,0,0,41", 1))
	if err := ref.check(&trial{CSV: raced, JournalSHA: "bb"}); err != nil {
		t.Errorf("a tolerated race must not fail on its journal: %v", err)
	}
	ref.exact = true
	if err := ref.check(&trial{CSV: raced, JournalSHA: "bb"}); err == nil {
		t.Error("exact reference accepted a raced CSV")
	}
}

func TestJournalDigest(t *testing.T) {
	header := `{"format":"mpifault-campaign-journal","version":1}` + "\n"
	line := func(outcome, detail string) []byte {
		return []byte(header + `{"id":"reg/1","rank":5,"outcome":"` + outcome + `","detail":"` + detail + `","candidates":320}` + "\n")
	}
	a := journalDigest(line("Crash", `SIGSEGV at pc=0x0804ed50 addr=0x08050eb0`))
	if b := journalDigest(line("Crash", `SIGSEGV at \"pc\"=0x0804f3e0, addr=0x08050b80`)); a != b {
		t.Error("digest depends on which crashing rank was noticed first")
	}
	if b := journalDigest(line("Hang", `SIGSEGV at pc=0x0804ed50 addr=0x08050eb0`)); a == b {
		t.Error("digest ignores the outcome")
	}
	if b := journalDigest([]byte(header + `{"id":"reg/1","rank":5,"outcome":"Crash","candidates":320}` + "\n")); a != b {
		t.Error("a line without detail must digest like one whose detail was dropped")
	}
}

func TestHostScale(t *testing.T) {
	if got := hostScale(calibRefS, calibRefS); got != 1 {
		t.Errorf("scale at the reference speed = %v, want 1", got)
	}
	// A host at half speed takes twice as long for the calibration and for
	// the campaign alike: the scaled time is the reference host's.
	if got := 10 * hostScale(2*calibRefS, 2*calibRefS); math.Abs(got-5) > 1e-9 {
		t.Errorf("10 s on a half-speed host scale to %v s, want 5", got)
	}
	if calibrate() <= 0 {
		t.Error("calibration took no time")
	}
}

func TestBestAndPercentiles(t *testing.T) {
	vs := []float64{2.0, 1.5, 3.0, 2.5}
	if got := best(vs, lower); got != 1.5 {
		t.Errorf("best lower = %v", got)
	}
	if got := best(vs, higher); got != 3.0 {
		t.Errorf("best higher = %v", got)
	}
	if got := median(vs); got != 2.25 {
		t.Errorf("median = %v, want 2.25", got)
	}
	if got := median([]float64{4, 1, 9}); got != 4 {
		t.Errorf("median of three = %v, want 4", got)
	}
	// 20 values 1..20: p95 sits 0.05 of the way from 19 to 20.
	var seq []float64
	for i := 20; i >= 1; i-- {
		seq = append(seq, float64(i))
	}
	if got := percentile(seq, 95); math.Abs(got-19.05) > 1e-9 {
		t.Errorf("p95 = %v, want 19.05", got)
	}
	if got := percentile(seq, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := percentile(seq, 100); got != 20 {
		t.Errorf("p100 = %v, want 20", got)
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("percentile of one value = %v", got)
	}
	if got := spread(vs); math.Abs(got-1.5/2.25) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "a", Parent: 0, StartNs: 10, EndNs: 40},
		{Name: "b", Parent: 0, StartNs: 30, EndNs: 60},  // overlaps a: union is 10..60
		{Name: "b", Parent: 0, StartNs: 90, EndNs: 120}, // clipped to the parent's end
		{Name: "leaf", Parent: 1, StartNs: 15, EndNs: 20},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	by := selfByName(spans)
	if by["b"] != 60 || by["root"] != 40 {
		t.Errorf("selfByName = %v", by)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.workload = "w"
	root := tr.begin("root", -1)
	child := tr.begin("child", root)
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[0].Workload != "w" {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[1].EndNs < tr.spans[1].StartNs || tr.spans[0].EndNs < tr.spans[1].EndNs {
		t.Errorf("span times out of order: %+v", tr.spans)
	}
}

func TestWorkloadCommandLines(t *testing.T) {
	got := strings.Join(workloads[workloadIndex("table_ckpt")].args(2004, "j.jsonl"), " ")
	want := "-app minimd -seed 2004 -regions reg,fp,bss,data,stack,text,heap -n 96 -csv -quiet -parallel 2 -journal j.jsonl"
	if got != want {
		t.Errorf("table_ckpt args:\n got %s\nwant %s", got, want)
	}
	got = strings.Join(workloads[workloadIndex("msg_comm16")].args(7, ""), " ")
	want = "-app minicam -seed 7 -regions message -n 800 -csv -quiet -parallel 2 -ranks 16 -scale 16"
	if got != want {
		t.Errorf("msg_comm16 args:\n got %s\nwant %s", got, want)
	}
	got = strings.Join(workloads[workloadIndex("adaptive_contract")].setup().args(7, ""), " ")
	want = "-app wavetoy -seed 7 -regions reg -adaptive -d 0.45 -confidence 0.95 -csv -quiet -parallel 2"
	if got != want {
		t.Errorf("adaptive_contract setup args:\n got %s\nwant %s", got, want)
	}
	c := workloads[workloadIndex("coord_leases")]
	got = strings.Join(c.setup().coordArgs(7, "addr", "out.csv"), " ")
	want = "-app wavetoy -seed 7 -regions reg -n 1 -addr 127.0.0.1:0 -addr-file addr -lease-size 1 -wait -out out.csv -quiet"
	if got != want {
		t.Errorf("coord_leases setup args:\n got %s\nwant %s", got, want)
	}
	if one := c.singleProcess(); one.LeaseSize != 0 || !one.NoCheckpoint || one.planned() != c.planned() {
		t.Errorf("singleProcess() = %+v", one)
	}
}

// TestSpecMatchesHarness keeps BENCHMARK.json and the harness in step:
// the same workloads in the same order, and exactly the end-to-end
// metrics measure() samples.
func TestSpecMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		benchSpec
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json says %q, harness %q", i, spec.Workloads[i].Name, w.Name)
		}
	}
	sampled := map[string]bool{"campaign_wall_s": true, "experiments_per_s": true,
		"campaign_cpu_s": true, "setup_s": true, "setup_rss_mb": true}
	for _, m := range spec.EndToEnd {
		if !sampled[m.Name] {
			t.Errorf("end-to-end metric %s is not measured by the harness", m.Name)
		}
		delete(sampled, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for name := range sampled {
		t.Errorf("harness measures %s, BENCHMARK.json does not list it", name)
	}
	if len(spec.PerLayer) == 0 {
		t.Error("no per-layer metrics listed")
	}
}

// TestInternalImportsConfined enforces the one-file touchpoint: only
// layers.go imports the measured layers, and guests.go only the
// packages a guest program is written with.
func TestInternalImportsConfined(t *testing.T) {
	guestOnly := map[string]bool{
		"mpifault/internal/abi": true, "mpifault/internal/asm": true, "mpifault/internal/guest": true,
		"mpifault/internal/image": true, "mpifault/internal/isa": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if !strings.HasPrefix(path, "mpifault/") {
				continue
			}
			switch {
			case file == "layers.go":
			case file == "guests.go" && guestOnly[path]:
			default:
				t.Errorf("%s imports %s; only layers.go (and guests.go for guest authoring) may import mpifault packages", file, path)
			}
		}
	}
}

// TestSmokeTableCkpt drives table_ckpt, cut to two injections per
// region, once through the real binaries: build, set-up runs, one
// campaign, shape check, journal hash.  A non-default seed keeps
// benchmark/expected/ (recorded at full size) out of it.
func TestSmokeTableCkpt(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs faultcampaign")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{root: root, seed: 7, calibrate: func() (float64, error) { return calibrate(), nil }}
	if h.bins, err = buildBinaries(root); err != nil {
		t.Fatal(err)
	}
	w := workloads[workloadIndex("table_ckpt")]
	w.N = 2
	m, err := h.measureFor(w, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Trials != 1 || m.Attempted != 14 || m.Failed != 0 {
		t.Errorf("trials %d attempted %d failed %d, want 1 14 0", m.Trials, m.Attempted, m.Failed)
	}
	for _, name := range []string{"campaign_wall_s", "experiments_per_s", "campaign_cpu_s", "peak_rss_mb"} {
		if vs := m.Samples[name]; len(vs) != 1 || vs[0] <= 0 {
			t.Errorf("%s samples = %v", name, vs)
		}
	}
	for _, name := range []string{"setup_s", "setup_rss_mb"} {
		if vs := m.Samples[name]; len(vs) != setupRuns {
			t.Errorf("%s has %d samples, want %d after the one campaign", name, len(vs), setupRuns)
		}
	}
}
