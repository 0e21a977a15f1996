package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// StatusLine renders the periodic one-line campaign status from a
// snapshot: completion, rate, ETA and the outcome mix so far.  elapsed
// is the campaign wall-clock time at the snapshot; the caller supplies
// it, which keeps the formatter deterministic and testable.
//
//	342/800 experiments (42.8%) | 41.2/s | ETA 11s | Correct 290 Crash 31 Hang 21
func StatusLine(s Snapshot, elapsed time.Duration) string {
	finished := s.Counters[MetricExperimentsFinished]
	planned := s.Counters[MetricExperimentsPlanned]
	resumed := s.Counters[MetricExperimentsResumed]
	// Resumed experiments were not run this session; count them as done
	// against the plan but keep the rate honest (finished only).
	done := finished + resumed

	var b strings.Builder
	if planned > 0 {
		fmt.Fprintf(&b, "%d/%d experiments (%.1f%%)", done, planned, 100*float64(done)/float64(planned))
	} else {
		fmt.Fprintf(&b, "%d experiments", done)
	}

	secs := elapsed.Seconds()
	if secs > 0 && finished > 0 {
		rate := float64(finished) / secs
		fmt.Fprintf(&b, " | %.1f/s", rate)
		if planned > done {
			eta := time.Duration(float64(planned-done) / rate * float64(time.Second)).Round(time.Second)
			fmt.Fprintf(&b, " | ETA %s", eta)
		}
	}

	if mix := outcomeMix(s); mix != "" {
		b.WriteString(" | ")
		b.WriteString(mix)
	}
	return b.String()
}

// outcomeMix renders the per-outcome counters as "Correct 290 Crash 31
// ...", outcomes sorted by descending count then name.
func outcomeMix(s Snapshot) string {
	type oc struct {
		name  string
		count uint64
	}
	var mix []oc
	for name, v := range s.Counters {
		if v == 0 || !strings.HasPrefix(name, outcomeMetricPrefix) {
			continue
		}
		label := strings.TrimSuffix(strings.TrimPrefix(name, outcomeMetricPrefix), "}")
		if unq, err := strconv.Unquote(label); err == nil {
			label = unq
		}
		mix = append(mix, oc{label, v})
	}
	sort.Slice(mix, func(i, j int) bool {
		if mix[i].count != mix[j].count {
			return mix[i].count > mix[j].count
		}
		return mix[i].name < mix[j].name
	})
	parts := make([]string, len(mix))
	for i, m := range mix {
		parts[i] = fmt.Sprintf("%s %d", m.name, m.count)
	}
	return strings.Join(parts, " ")
}
