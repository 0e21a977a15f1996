package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// goldenRegistry builds a registry with one of everything, including a
// labelled counter family, so the golden strings below pin the full
// exposition grammar.
func goldenRegistry() *Registry {
	reg := New()
	reg.Counter("mpifault_experiments_finished_total").Add(3)
	reg.Counter(`mpifault_vm_traps_total{signal="SIGSEGV"}`).Add(2)
	reg.Counter(`mpifault_vm_traps_total{signal="SIGFPE"}`).Inc()
	reg.Gauge("mpifault_experiments_inflight").Set(4)
	h := reg.Histogram("mpifault_crash_latency_instructions", []uint64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	reg.Counter(MetricTraceDiffed).Add(5)
	reg.Counter(MetricTraceLocalized).Add(4)
	reg.Counter(MetricTraceUnlocalized).Inc()
	mi := reg.Histogram(MetricTraceDivergenceMsg, TraceMessageBuckets)
	mi.Observe(3)
	mi.Observe(42)
	reg.Counter(SoloMetric("correct")).Add(6)
	reg.Counter(SoloMetric("fallback")).Inc()
	reg.Counter(MetricSoloInstrs).Add(123456)
	reg.Counter(SoloDeadMetric("unread")).Add(411)
	reg.Counter(SoloDeadMetric("fp_tag")).Add(46)
	reg.Counter(SoloDeadMetric("write_only")).Add(34)
	reg.Counter(MetricReadIndexInstrs).Add(2345678)
	reg.Counter(MetricSoloConverged).Add(242)
	lt := reg.Histogram(MetricFaultLifetime, LatencyBuckets)
	lt.Observe(300)
	lt.Observe(12500)
	lt.Observe(25000)
	reg.Counter(PeerMetric("materialized")).Add(1033)
	reg.Counter(PeerMetric("ghost")).Add(150)
	reg.Counter(MetricSchedSwitches).Add(789)
	reg.Gauge(MetricQueueDepthPeak).SetMax(12)
	return reg
}

const goldenPrometheus = `# TYPE mpifault_experiments_finished_total counter
mpifault_experiments_finished_total 3
# TYPE mpifault_fallback_peers_total counter
mpifault_fallback_peers_total{fate="ghost"} 150
mpifault_fallback_peers_total{fate="materialized"} 1033
# TYPE mpifault_read_index_instrs_total counter
mpifault_read_index_instrs_total 2345678
# TYPE mpifault_sched_switches_total counter
mpifault_sched_switches_total 789
# TYPE mpifault_solo_converged_total counter
mpifault_solo_converged_total 242
# TYPE mpifault_solo_dead_total counter
mpifault_solo_dead_total{rule="fp_tag"} 46
mpifault_solo_dead_total{rule="unread"} 411
mpifault_solo_dead_total{rule="write_only"} 34
# TYPE mpifault_solo_experiments_total counter
mpifault_solo_experiments_total{verdict="correct"} 6
mpifault_solo_experiments_total{verdict="fallback"} 1
# TYPE mpifault_solo_instrs_total counter
mpifault_solo_instrs_total 123456
# TYPE mpifault_trace_diffed_total counter
mpifault_trace_diffed_total 5
# TYPE mpifault_trace_localized_total counter
mpifault_trace_localized_total 4
# TYPE mpifault_trace_unlocalized_total counter
mpifault_trace_unlocalized_total 1
# TYPE mpifault_vm_traps_total counter
mpifault_vm_traps_total{signal="SIGFPE"} 1
mpifault_vm_traps_total{signal="SIGSEGV"} 2
# TYPE mpifault_experiments_inflight gauge
mpifault_experiments_inflight 4
# TYPE mpifault_mpi_queue_depth_peak gauge
mpifault_mpi_queue_depth_peak 12
# TYPE mpifault_crash_latency_instructions histogram
mpifault_crash_latency_instructions_bucket{le="10"} 1
mpifault_crash_latency_instructions_bucket{le="100"} 2
mpifault_crash_latency_instructions_bucket{le="+Inf"} 3
mpifault_crash_latency_instructions_sum 555
mpifault_crash_latency_instructions_count 3
# TYPE mpifault_fault_lifetime_instructions histogram
mpifault_fault_lifetime_instructions_bucket{le="100"} 0
mpifault_fault_lifetime_instructions_bucket{le="1000"} 1
mpifault_fault_lifetime_instructions_bucket{le="10000"} 1
mpifault_fault_lifetime_instructions_bucket{le="100000"} 3
mpifault_fault_lifetime_instructions_bucket{le="1000000"} 3
mpifault_fault_lifetime_instructions_bucket{le="10000000"} 3
mpifault_fault_lifetime_instructions_bucket{le="+Inf"} 3
mpifault_fault_lifetime_instructions_sum 37800
mpifault_fault_lifetime_instructions_count 3
# TYPE mpifault_trace_divergence_msg_index histogram
mpifault_trace_divergence_msg_index_bucket{le="1"} 0
mpifault_trace_divergence_msg_index_bucket{le="10"} 1
mpifault_trace_divergence_msg_index_bucket{le="100"} 2
mpifault_trace_divergence_msg_index_bucket{le="1000"} 2
mpifault_trace_divergence_msg_index_bucket{le="10000"} 2
mpifault_trace_divergence_msg_index_bucket{le="+Inf"} 2
mpifault_trace_divergence_msg_index_sum 45
mpifault_trace_divergence_msg_index_count 2
`

const goldenJSON = `{
  "counters": {
    "mpifault_experiments_finished_total": 3,
    "mpifault_fallback_peers_total{fate=\"ghost\"}": 150,
    "mpifault_fallback_peers_total{fate=\"materialized\"}": 1033,
    "mpifault_read_index_instrs_total": 2345678,
    "mpifault_sched_switches_total": 789,
    "mpifault_solo_converged_total": 242,
    "mpifault_solo_dead_total{rule=\"fp_tag\"}": 46,
    "mpifault_solo_dead_total{rule=\"unread\"}": 411,
    "mpifault_solo_dead_total{rule=\"write_only\"}": 34,
    "mpifault_solo_experiments_total{verdict=\"correct\"}": 6,
    "mpifault_solo_experiments_total{verdict=\"fallback\"}": 1,
    "mpifault_solo_instrs_total": 123456,
    "mpifault_trace_diffed_total": 5,
    "mpifault_trace_localized_total": 4,
    "mpifault_trace_unlocalized_total": 1,
    "mpifault_vm_traps_total{signal=\"SIGFPE\"}": 1,
    "mpifault_vm_traps_total{signal=\"SIGSEGV\"}": 2
  },
  "gauges": {
    "mpifault_experiments_inflight": 4,
    "mpifault_mpi_queue_depth_peak": 12
  },
  "histograms": {
    "mpifault_crash_latency_instructions": {
      "bounds": [
        10,
        100
      ],
      "counts": [
        1,
        1,
        1
      ],
      "sum": 555,
      "count": 3
    },
    "mpifault_fault_lifetime_instructions": {
      "bounds": [
        100,
        1000,
        10000,
        100000,
        1000000,
        10000000
      ],
      "counts": [
        0,
        1,
        0,
        2,
        0,
        0,
        0
      ],
      "sum": 37800,
      "count": 3
    },
    "mpifault_trace_divergence_msg_index": {
      "bounds": [
        1,
        10,
        100,
        1000,
        10000
      ],
      "counts": [
        0,
        1,
        1,
        0,
        0,
        0
      ],
      "sum": 45,
      "count": 2
    }
  }
}
`

func TestWritePrometheusGolden(t *testing.T) {
	var b strings.Builder
	goldenRegistry().Snapshot().WritePrometheus(&b)
	if b.String() != goldenPrometheus {
		t.Errorf("Prometheus exposition drifted:\ngot:\n%s\nwant:\n%s", b.String(), goldenPrometheus)
	}
}

func TestWriteJSONGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != goldenJSON {
		t.Errorf("JSON exposition drifted:\ngot:\n%s\nwant:\n%s", b.String(), goldenJSON)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	srv := httptest.NewServer(Handler(goldenRegistry()))
	defer srv.Close()

	get := func(path string) (string, string, int) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type"), resp.StatusCode
	}

	body, ctype, code := get("/metrics")
	if code != http.StatusOK || body != goldenPrometheus {
		t.Errorf("/metrics: status %d body:\n%s", code, body)
	}
	if ctype != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics Content-Type = %q", ctype)
	}

	body, ctype, code = get("/metrics.json")
	if code != http.StatusOK || body != goldenJSON {
		t.Errorf("/metrics.json: status %d body:\n%s", code, body)
	}
	if ctype != "application/json" {
		t.Errorf("/metrics.json Content-Type = %q", ctype)
	}

	if _, _, code = get("/"); code != http.StatusOK {
		t.Errorf("/ status = %d", code)
	}
	if _, _, code = get("/nope"); code != http.StatusNotFound {
		t.Errorf("/nope status = %d, want 404", code)
	}
}

func TestStatusLine(t *testing.T) {
	reg := New()
	reg.Counter(MetricExperimentsPlanned).Add(800)
	reg.Counter(MetricExperimentsFinished).Add(242)
	reg.Counter(MetricExperimentsResumed).Add(100)
	reg.Counter(OutcomeMetric("Correct")).Add(200)
	reg.Counter(OutcomeMetric("Crash")).Add(31)
	reg.Counter(OutcomeMetric("Hang")).Add(11)
	reg.Counter(OutcomeMetric("MPI Detected")) // zero: must not appear

	got := StatusLine(reg.Snapshot(), 10*time.Second)
	want := "342/800 experiments (42.8%) | 24.2/s | ETA 19s | Correct 200 Crash 31 Hang 11"
	if got != want {
		t.Errorf("status line:\ngot:  %s\nwant: %s", got, want)
	}
}

func TestStatusLineEmpty(t *testing.T) {
	if got := StatusLine(New().Snapshot(), time.Second); got != "0 experiments" {
		t.Errorf("empty status line = %q", got)
	}
}
