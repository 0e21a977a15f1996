package main

import (
	"fmt"
	"strconv"
	"strings"
)

// workload is one campaign the benchmark drives end to end.  The same
// description yields the command line of the shipped binaries (args),
// the one-experiment cut that measures set-up (setup), and the
// in-process replay of the traced run (layers.go), so the three cannot
// drift apart.
type workload struct {
	Name string
	App  string
	// Ranks and Scale override the application's defaults when nonzero.
	Ranks, Scale int
	// N is the injections per region; adaptive campaigns size themselves.
	N       int
	Regions []string
	// NoCheckpoint passes -checkpoint-interval 0: every experiment from t=0.
	NoCheckpoint bool
	// Journal appends every experiment to a JSONL journal.
	Journal bool
	// Adaptive runs the sequential-stopping planner to half-width D.
	Adaptive bool
	D        float64
	// LeaseSize > 0 runs the campaign through faultcoord and two workers.
	LeaseSize int
}

var nonMessage = []string{"reg", "fp", "bss", "data", "stack", "text", "heap"}

// The five workloads.  Sizes were timed on a 2-core host at -parallel 2
// so that one campaign takes about 3 s and a 20 s run holds five or more;
// benchmark/README.md records the timings and why each exists.
var workloads = []workload{
	{Name: "table_ckpt", App: "minimd", N: 96, Regions: nonMessage, Journal: true},
	{Name: "vm_scratch", App: "minicam", N: 88, Regions: []string{"reg", "fp", "text"}, NoCheckpoint: true},
	{Name: "msg_comm16", App: "minicam", Ranks: 16, Scale: 16, N: 800, Regions: []string{"message"}},
	{Name: "adaptive_contract", App: "wavetoy", Adaptive: true, D: 0.049,
		Regions: append(append([]string(nil), nonMessage...), "message")},
	{Name: "coord_leases", App: "wavetoy", N: 80, Regions: nonMessage, LeaseSize: 4},
}

func workloadIndex(name string) int {
	for i, w := range workloads {
		if w.Name == name {
			return i
		}
	}
	return -1
}

// planned is the number of experiments the campaign must classify, or 0
// for an adaptive campaign, which reports its own count on stderr.
func (w workload) planned() int {
	if w.Adaptive {
		return 0
	}
	return w.N * len(w.Regions)
}

// setup cuts the workload to one experiment (one pilot round for the
// adaptive campaign): what is left is process start, image build, static
// analysis, the golden run and checkpoint capture.
func (w workload) setup() workload {
	w.Regions = []string{"reg"}
	if w.Adaptive {
		w.D = 0.45
	} else {
		w.N = 1
	}
	if w.LeaseSize > 0 {
		w.LeaseSize = 1
	}
	w.Journal = false
	return w
}

// campaignFlags are the flags that define the campaign itself, shared by
// faultcampaign and faultcoord.
func (w workload) campaignFlags(seed uint64) []string {
	a := []string{"-app", w.App, "-seed", strconv.FormatUint(seed, 10),
		"-regions", strings.Join(w.Regions, ",")}
	if w.Adaptive {
		a = append(a, "-adaptive", "-d", fmt.Sprint(w.D), "-confidence", "0.95")
	} else {
		a = append(a, "-n", strconv.Itoa(w.N))
	}
	return a
}

// args is the faultcampaign command line of a single-process workload.
// Load is fixed at -parallel 2 whatever the host's core count.
func (w workload) args(seed uint64, journal string) []string {
	a := append(w.campaignFlags(seed), "-csv", "-quiet", "-parallel", "2")
	if w.Ranks > 0 {
		a = append(a, "-ranks", strconv.Itoa(w.Ranks))
	}
	if w.Scale > 0 {
		a = append(a, "-scale", strconv.Itoa(w.Scale))
	}
	if w.NoCheckpoint {
		a = append(a, "-checkpoint-interval", "0")
	}
	if w.Journal {
		a = append(a, "-journal", journal)
	}
	return a
}

// coordArgs is the faultcoord command line of a coordinated workload.
func (w workload) coordArgs(seed uint64, addrFile, out string) []string {
	return append(w.campaignFlags(seed), "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-lease-size", strconv.Itoa(w.LeaseSize), "-wait", "-out", out, "-quiet")
}

// singleProcess is the campaign a coordinated workload's CSV must equal:
// the same plan in one faultcampaign process with every experiment
// started from t=0, the way leased workers run it.
func (w workload) singleProcess() workload {
	w.LeaseSize = 0
	w.NoCheckpoint = true
	return w
}
