package telemetry

import "strconv"

// Canonical metric names.  They live here rather than at the
// instrumentation sites because several are read back by other layers:
// the status line and the CI snapshot artifact consume what core and
// cluster record.
const (
	// Campaign progress (internal/core).
	MetricExperimentsPlanned  = "mpifault_experiments_planned_total"
	MetricExperimentsResumed  = "mpifault_experiments_resumed_total"
	MetricExperimentsStarted  = "mpifault_experiments_started_total"
	MetricExperimentsFinished = "mpifault_experiments_finished_total"
	MetricExperimentsInflight = "mpifault_experiments_inflight"
	MetricUnapplied           = "mpifault_experiments_unapplied_total"
	MetricMessagesCorrupted   = "mpifault_messages_corrupted_total"

	// Golden-run checkpointing (internal/core).  Taken counts the
	// snapshots golden runs took of themselves; hits/misses count
	// experiments started from a checkpoint vs from t=0; the
	// instructions-skipped gauge totals the golden-prefix work restored
	// experiments did not repeat.
	MetricCheckpointsTaken = "mpifault_checkpoints_taken_total"
	MetricCheckpointHits   = "mpifault_checkpoint_hits_total"
	MetricCheckpointMisses = "mpifault_checkpoint_misses_total"
	MetricInstrsSkipped    = "mpifault_checkpoint_instructions_skipped"

	// Solo-rank replay (internal/core): the guest instructions executed
	// by experiments run on their injected rank alone; SoloMetric counts
	// those experiments by how the solo run ended, SoloDeadMetric the
	// Correct ones stopped at their injection, and converged those stopped
	// at a later snapshot clock, back in the golden state; the lifetime
	// histogram puts that clock's distance from the injection on the
	// instruction axis (an upper bound on how long the masked fault lived).
	// The read index that proves a flip dead replays each golden rank once,
	// counted apart.
	MetricSoloInstrs      = "mpifault_solo_instrs_total"
	MetricSoloConverged   = "mpifault_solo_converged_total"
	MetricFaultLifetime   = "mpifault_fault_lifetime_instructions"
	MetricReadIndexInstrs = "mpifault_read_index_instrs_total"

	// Fault-forensics latency histograms (injection to manifestation,
	// in retired instructions — the §5.2 axis).
	MetricCrashLatency = "mpifault_crash_latency_instructions"
	MetricHangLatency  = "mpifault_hang_latency_instructions"

	// Trace-diff localization (internal/core with TraceDiff enabled).
	// Diffed counts the Incorrect/Hang/Crash experiments whose ranks'
	// outputs were compared against the golden tapes; localized vs
	// unlocalized splits them by whether a first divergence was found.
	// The histograms place the divergence on the message axis (index in
	// the implicated rank's output stream) and the instruction axis (distance
	// from the injection, when both lie on it).
	MetricTraceDiffed        = "mpifault_trace_diffed_total"
	MetricTraceLocalized     = "mpifault_trace_localized_total"
	MetricTraceUnlocalized   = "mpifault_trace_unlocalized_total"
	MetricTraceDivergenceMsg = "mpifault_trace_divergence_msg_index"
	MetricTraceLatency       = "mpifault_trace_divergence_latency_instructions"

	// Job execution (internal/cluster, aggregated after each job so the
	// interpreter hot path carries no telemetry).
	MetricJobs            = "mpifault_jobs_total"
	MetricInstrsRetired   = "mpifault_vm_instructions_retired_total"
	MetricBudgetExhausted = "mpifault_vm_budget_exhausted_total"
	MetricSchedSwitches   = "mpifault_sched_switches_total"
	MetricQueueDepthPeak  = "mpifault_mpi_queue_depth_peak"
	MetricControlMsgs     = "mpifault_mpi_control_messages_total"
	MetricDataMsgs        = "mpifault_mpi_data_messages_total"
	MetricHeaderBytes     = "mpifault_mpi_header_bytes_total"
	MetricPayloadBytes    = "mpifault_mpi_payload_bytes_total"

	// Campaign control plane (internal/coord).  Leases are bounded
	// ranges of the plan handed to pull-based workers; an expired lease
	// (slow or dead worker) returns to the queue and is counted as
	// stolen when another worker re-acquires it.  A lease's results are
	// ingested once, when it completes.
	MetricCoordLeases          = "mpifault_coord_leases_total"
	MetricCoordLeasesGranted   = "mpifault_coord_leases_granted_total"
	MetricCoordLeasesCompleted = "mpifault_coord_leases_completed_total"
	MetricCoordLeasesExpired   = "mpifault_coord_leases_expired_total"
	MetricCoordLeasesStolen    = "mpifault_coord_leases_stolen_total"
	MetricCoordLeasesActive    = "mpifault_coord_leases_active"
	MetricCoordResults         = "mpifault_coord_results_ingested_total"
	MetricCoordSegmentBytes    = "mpifault_coord_segment_bytes_total"
	MetricCoordWorkers         = "mpifault_coord_workers"
	MetricCoordPlanTotal       = "mpifault_coord_plan_experiments_total"

	// Adaptive sequential-stopping planner (an adaptive internal/core Run).
	// Rounds counts planner barriers crossed; the open gauge tracks how
	// many strata still miss their CI target (0 = converged).
	MetricAdaptiveRounds = "mpifault_adaptive_rounds_total"
	MetricAdaptiveOpen   = "mpifault_adaptive_strata_open"
)

// outcomeMetricPrefix prefixes the per-outcome experiment counters; the
// status line scans for it when rendering the outcome mix.
const outcomeMetricPrefix = "mpifault_experiments_outcome_total{outcome="

// OutcomeMetric names the counter of experiments that manifested as the
// given classification (e.g. "Crash").
func OutcomeMetric(outcome string) string {
	return outcomeMetricPrefix + strconv.Quote(outcome) + "}"
}

// SoloMetric names the counter of experiments run on their injected rank
// alone that ended with the given verdict: "correct", "failed" or
// "deadlock" (decided there), or "fallback" (re-run as a whole job, its
// peers ghosts).
func SoloMetric(verdict string) string {
	return "mpifault_solo_experiments_total{verdict=" + strconv.Quote(verdict) + "}"
}

// SoloDeadMetric names the counter of experiments decided Correct at their
// injection, by the rule that found nothing reads the flipped bits again:
// "unread", "fp_tag" or "write_only".
func SoloDeadMetric(rule string) string {
	return "mpifault_solo_dead_total{rule=" + strconv.Quote(rule) + "}"
}

// PeerMetric names the counter of the fallbacks' peer ranks — every rank
// of a whole job but the injected one — by their fate: "materialized"
// (the fault reached it and it executed) or "ghost" (it never did).
func PeerMetric(fate string) string {
	return "mpifault_fallback_peers_total{fate=" + strconv.Quote(fate) + "}"
}

// WorkerMetric names the per-worker ingested-result counter of the
// coordinator's cluster view (e.g. worker "w1").
func WorkerMetric(worker string) string {
	return "mpifault_coord_worker_results_total{worker=" + strconv.Quote(worker) + "}"
}

// AdaptiveHalfWidthMetric names the gauge holding a stratum's current
// Wilson CI half-width in basis points (1e-4), keyed by region short
// name (e.g. "reg").
func AdaptiveHalfWidthMetric(region string) string {
	return "mpifault_adaptive_halfwidth_bp{region=" + strconv.Quote(region) + "}"
}

// TrapMetric names the counter of VM traps of the given kind (e.g.
// "SIGSEGV").
func TrapMetric(kind string) string {
	return "mpifault_vm_traps_total{signal=" + strconv.Quote(kind) + "}"
}

// HangMetric names the counter of jobs hung for the given detector cause.
func HangMetric(cause string) string {
	return "mpifault_cluster_hangs_total{cause=" + strconv.Quote(cause) + "}"
}

// LatencyBuckets is the fixed bucket layout of the crash/hang-latency
// histograms: decade buckets over the instruction axis, chosen so the
// paper's "most crashes occur within a few thousand instructions"
// (§5.2) claim is directly readable off the first three buckets.
var LatencyBuckets = []uint64{100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}

// TraceMessageBuckets is the bucket layout of the divergence
// message-index histogram: decade buckets over the position in the
// implicated rank's output stream, so "the fault diverged the stream
// within the first handful of messages" is readable off the low
// buckets.
var TraceMessageBuckets = []uint64{1, 10, 100, 1_000, 10_000}
