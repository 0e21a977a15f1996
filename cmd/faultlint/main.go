// Command faultlint runs every static pass in internal/analysis over
// the guest applications and reports what it finds: CFG defects
// (undecodable opcodes, branches into the middle of instructions,
// control falling off the end), ABI/stack-discipline violations,
// floating-point stack imbalance, register-liveness inconsistencies,
// dataflow/liveness disagreements, and — with -mpi — mismatches in the
// recorded point-to-point traffic.  It also prints the static AVF
// prediction table: the per-region fault-sensitive fraction the analyzer
// forecasts.
//
// Exit status: 0 clean, 1 findings, 2 operational error.
//
// Usage:
//
//	faultlint                      # all apps, static passes + tables
//	faultlint -app minimd -v       # one app, per-function statistics
//	faultlint -json                # machine-readable report on stdout
//	faultlint -mpi                 # also lint recorded MPI traffic
//	faultlint -profile             # measured denominators for the AVF table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"mpifault/internal/analysis"
	"mpifault/internal/apps"
	"mpifault/internal/mpi"
	"mpifault/internal/profile"
)

type options struct {
	withMPI, withProfile, verbose bool
	jsonOut                       bool
}

func main() {
	app := flag.String("app", "", "lint a single application (default: all)")
	opts := options{}
	flag.BoolVar(&opts.withMPI, "mpi", false, "run the app once and lint its point-to-point traffic")
	flag.BoolVar(&opts.withProfile, "profile", false, "measure the app to refine the AVF denominators")
	flag.BoolVar(&opts.verbose, "v", false, "per-function liveness and ABI statistics")
	flag.BoolVar(&opts.jsonOut, "json", false, "emit a machine-readable JSON report on stdout")
	flag.Parse()

	os.Exit(run(*app, opts, os.Stdout))
}

// run executes the lint over the selected apps and returns the process
// exit code: 0 clean, 1 findings, 2 operational error.
func run(app string, opts options, w io.Writer) int {
	var names []string
	if app != "" {
		names = []string{app}
	} else {
		for _, a := range apps.Registry() {
			names = append(names, a.Name)
		}
	}

	var reports []*appReport
	findings := false
	for _, name := range names {
		rep, err := lintApp(name, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faultlint: %s: %v\n", name, err)
			return 2
		}
		if len(rep.Findings) > 0 {
			findings = true
		}
		reports = append(reports, rep)
	}

	if opts.jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintf(os.Stderr, "faultlint: %v\n", err)
			return 2
		}
	} else {
		for _, rep := range reports {
			rep.write(w, opts.verbose)
		}
	}
	if findings {
		return 1
	}
	return 0
}

// appReport is one application's full lint result — also the -json
// serialization, so everything in it is deterministic: findings are
// stable-sorted and all table quantities are integers.
type appReport struct {
	App       string        `json:"app"`
	Functions int           `json:"functions"`
	Reachable int           `json:"reachable"`
	Findings  []findingJSON `json:"findings"`
	AVF       []avfRowJSON  `json:"avf"`
	MPI       *mpiJSON      `json:"mpi,omitempty"`

	// unserialized internals for the human report
	avf      *analysis.AVFReport
	live     *analysis.Liveness
	prog     *analysis.Program
	abiStats map[string]analysis.ABIStats
}

type findingJSON struct {
	Pass string `json:"pass"`
	Func string `json:"func,omitempty"`
	Addr uint32 `json:"addr,omitempty"`
	Msg  string `json:"msg"`
}

type avfRowJSON struct {
	Region    string `json:"region"`
	Sensitive uint64 `json:"sensitive"`
	Total     uint64 `json:"total"`
}

type mpiJSON struct {
	Ops     int `json:"ops"`
	Matched int `json:"matched"`
}

// lintApp runs all passes over one app.
func lintApp(name string, opts options) (*appReport, error) {
	a, err := apps.Get(name)
	if err != nil {
		return nil, err
	}
	im, err := a.Build(a.Default)
	if err != nil {
		return nil, err
	}

	prog, err := analysis.Analyze(im)
	if err != nil {
		return nil, err
	}
	live := analysis.ComputeLiveness(prog)
	abiFindings, abiStats := analysis.ABICheck(prog)
	flow := analysis.ComputeDataflow(prog, live)

	findings := append([]analysis.Finding(nil), prog.Findings...)
	findings = append(findings, live.Findings...)
	findings = append(findings, abiFindings...)
	findings = append(findings, flow.Findings...)

	rep := &appReport{
		App:       name,
		Functions: len(prog.Funcs),
		live:      live,
		prog:      prog,
		abiStats:  abiStats,
	}
	for _, f := range prog.Funcs {
		if f.Reachable {
			rep.Reachable++
		}
	}

	if opts.withMPI {
		res := analysis.MPILint(im, a.Default.Ranks, mpi.Config{}, 0, 30*time.Second)
		findings = append(findings, res.Findings...)
		rep.MPI = &mpiJSON{Ops: res.Ops, Matched: res.Matched}
	}

	var prof *profile.Profile
	if opts.withProfile {
		if prof, err = profile.Measure(name, im, a.Default.Ranks, mpi.Config{}); err != nil {
			return nil, fmt.Errorf("profile: %v", err)
		}
	}

	// Stable order so -json goldens and CI diffs are deterministic.
	sort.SliceStable(findings, func(i, j int) bool {
		if findings[i].Pass != findings[j].Pass {
			return findings[i].Pass < findings[j].Pass
		}
		if findings[i].Func != findings[j].Func {
			return findings[i].Func < findings[j].Func
		}
		if findings[i].Addr != findings[j].Addr {
			return findings[i].Addr < findings[j].Addr
		}
		return findings[i].Msg < findings[j].Msg
	})
	for _, f := range findings {
		rep.Findings = append(rep.Findings, findingJSON{Pass: f.Pass, Func: f.Func, Addr: f.Addr, Msg: f.Msg})
	}

	rep.avf = analysis.EstimateAVF(prog, live, abiStats, prof)
	rep.avf.App = name
	for _, r := range rep.avf.Rows {
		rep.AVF = append(rep.AVF, avfRowJSON{Region: r.Region, Sensitive: r.Sensitive, Total: r.Total})
	}
	return rep, nil
}

// write renders the human report for one app.
func (rep *appReport) write(w io.Writer, verbose bool) {
	if rep.MPI != nil {
		fmt.Fprintf(w, "%s: mpi traffic: %d ops, %d pairs matched\n", rep.App, rep.MPI.Ops, rep.MPI.Matched)
	}
	fmt.Fprintf(w, "%s: %d functions (%d reachable), %d findings\n",
		rep.App, rep.Functions, rep.Reachable, len(rep.Findings))
	for _, f := range rep.Findings {
		fmt.Fprintf(w, "  %s\n", analysis.Finding{Pass: f.Pass, Func: f.Func, Addr: f.Addr, Msg: f.Msg})
	}

	if verbose {
		for _, f := range rep.prog.Funcs {
			if !f.Reachable {
				fmt.Fprintf(w, "  %-24s unreachable\n", f.Sym.Name)
				continue
			}
			st := rep.abiStats[f.Sym.Name]
			frame := "leaf"
			if st.HasFrame {
				frame = "framed"
			}
			use, _ := rep.live.FuncEntryUse(f.Sym.Name)
			fmt.Fprintf(w, "  %-24s %3d instrs, %2d blocks, %s, %d stack words, entry uses %s\n",
				f.Sym.Name, len(f.Instrs), len(f.Blocks), frame,
				st.MaxDepthWords, use)
		}
	}

	fmt.Fprintf(w, "%s: static fault-sensitivity prediction:\n", rep.App)
	rep.avf.WriteAVF(w, nil)
	fmt.Fprintln(w)
}
