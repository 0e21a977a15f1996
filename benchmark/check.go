package main

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
)

const csvHeader = "app,region,executions,errors,error_rate_pct,crash,hang,incorrect,app_detected,mpi_detected,correct"

// messageRegion is the CSV name of the one region whose outcomes depend
// on host scheduling (ROADMAP item 1): its rows are compared by error
// rate, every other row byte for byte.
const messageRegion = "Message"

// messageTolerance is how far, in percentage points, a message row's
// error rate may sit from the row it is compared with.
const messageTolerance = 5.0

// csvRow is one region row of `faultcampaign -csv`.
type csvRow struct {
	Line       string // the row's bytes, for exact comparison
	Region     string
	Executions int
	Errors     int
	ErrorRate  float64
	// Outcomes are crash, hang, incorrect, app_detected, mpi_detected, correct.
	Outcomes [6]int
}

// parseCSV parses the campaign CSV: the header line, one row per region,
// optional blank lines.
func parseCSV(data []byte) ([]csvRow, error) {
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 || lines[0] != csvHeader {
		return nil, fmt.Errorf("csv: missing header %q", csvHeader)
	}
	var rows []csvRow
	for _, line := range lines[1:] {
		if line == "" {
			continue
		}
		f := strings.Split(line, ",")
		if len(f) != 11 {
			return nil, fmt.Errorf("csv: row %q has %d fields, want 11", line, len(f))
		}
		r := csvRow{Line: line, Region: f[1]}
		counts := []*int{&r.Executions, &r.Errors, nil, &r.Outcomes[0], &r.Outcomes[1],
			&r.Outcomes[2], &r.Outcomes[3], &r.Outcomes[4], &r.Outcomes[5]}
		for i, dst := range counts {
			var err error
			if dst == nil {
				r.ErrorRate, err = strconv.ParseFloat(f[2+i], 64)
			} else {
				*dst, err = strconv.Atoi(f[2+i])
			}
			if err != nil {
				return nil, fmt.Errorf("csv: row %q: %v", line, err)
			}
		}
		rows = append(rows, r)
	}
	return rows, nil
}

func classified(rows []csvRow) int {
	n := 0
	for _, r := range rows {
		n += r.Executions
	}
	return n
}

var (
	unclassifiedRE = regexp.MustCompile(`(?m)^\S+: (\d+) experiments failed to classify`)
	adaptiveRE     = regexp.MustCompile(`adaptive stopping converged in (\d+) rounds: (\d+) experiments vs (\d+) fixed-n`)
)

// parseUnclassified returns the "failed to classify" count a campaign
// printed on stderr, 0 when it printed none.
func parseUnclassified(stderr []byte) int {
	m := unclassifiedRE.FindSubmatch(stderr)
	if m == nil {
		return 0
	}
	n, _ := strconv.Atoi(string(m[1]))
	return n
}

// parseAdaptive returns the rounds, executed experiments and fixed-n
// total an adaptive campaign printed on stderr.
func parseAdaptive(stderr []byte) (rounds, executed, fixed int, ok bool) {
	m := adaptiveRE.FindSubmatch(stderr)
	if m == nil {
		return 0, 0, 0, false
	}
	rounds, _ = strconv.Atoi(string(m[1]))
	executed, _ = strconv.Atoi(string(m[2]))
	fixed, _ = strconv.Atoi(string(m[3]))
	return rounds, executed, fixed, true
}

// checkShape verifies what must hold for any seed: one row per region,
// executions equal to the plan (for an adaptive campaign: at most the
// per-region cap, summing to the count it reported), and the outcome
// columns summing to executions.
func checkShape(w workload, rows []csvRow, stderr []byte) error {
	if len(rows) != len(w.Regions) {
		return fmt.Errorf("%d region rows, want %d", len(rows), len(w.Regions))
	}
	for _, r := range rows {
		sum := 0
		for _, o := range r.Outcomes {
			sum += o
		}
		if sum != r.Executions {
			return fmt.Errorf("%s: outcome columns sum to %d, executions %d", r.Region, sum, r.Executions)
		}
		if r.Errors != r.Executions-r.Outcomes[5] {
			return fmt.Errorf("%s: errors %d, executions-correct %d", r.Region, r.Errors, r.Executions-r.Outcomes[5])
		}
		if !w.Adaptive && r.Executions != w.N {
			return fmt.Errorf("%s: %d executions, planned %d", r.Region, r.Executions, w.N)
		}
	}
	if w.Adaptive {
		_, executed, fixed, ok := parseAdaptive(stderr)
		if !ok {
			return fmt.Errorf("adaptive summary missing from stderr")
		}
		if got := classified(rows); got != executed {
			return fmt.Errorf("rows hold %d executions, campaign reported %d", got, executed)
		}
		for _, r := range rows {
			if r.Executions < 1 || r.Executions > fixed/len(w.Regions) {
				return fmt.Errorf("%s: %d executions outside [1, cap %d]", r.Region, r.Executions, fixed/len(w.Regions))
			}
		}
	}
	return nil
}

// raceTolerance is how many experiments each error-kind column of a
// non-message row may differ by when two runs of one command are
// compared.  A faulted job in which one rank crashes while another
// exhausts its instruction budget is classified Crash or Hang by
// whichever verdict lands first (minicam text/35 at seed 102 flips in
// about a quarter of runs) — the host-scheduling dependence ROADMAP item
// 1 is to remove.  Whether each experiment manifested never depends on
// it, so executions, errors and correct must still agree exactly.
const raceTolerance = 2

// sameOutput compares a campaign CSV with a reference.  Message rows
// are compared by error rate within messageTolerance points.  Every
// other row must match byte for byte when exact is set; otherwise it
// must agree on executions, errors and correct, and on each error-kind
// column within raceTolerance.
func sameOutput(got, want []byte, exact bool) error {
	g, err := parseCSV(got)
	if err != nil {
		return err
	}
	w, err := parseCSV(want)
	if err != nil {
		return fmt.Errorf("reference: %v", err)
	}
	if len(g) != len(w) {
		return fmt.Errorf("%d rows, reference has %d", len(g), len(w))
	}
	for i := range g {
		differs := fmt.Errorf("row differs:\n  got  %s\n  want %s", g[i].Line, w[i].Line)
		switch {
		case g[i].Region != w[i].Region:
			return differs
		case g[i].Region == messageRegion:
			if d := math.Abs(g[i].ErrorRate - w[i].ErrorRate); d > messageTolerance {
				return fmt.Errorf("message error rate %.2f%% is %.2f points from the reference %.2f%%",
					g[i].ErrorRate, d, w[i].ErrorRate)
			}
		case exact:
			if g[i].Line != w[i].Line {
				return differs
			}
		default:
			if g[i].Executions != w[i].Executions || g[i].Errors != w[i].Errors {
				return differs
			}
			for k := 0; k < 5; k++ {
				if d := g[i].Outcomes[k] - w[i].Outcomes[k]; d > raceTolerance || d < -raceTolerance {
					return differs
				}
			}
		}
	}
	return nil
}
