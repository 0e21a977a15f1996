package core

import (
	"mpifault/internal/classify"
	"mpifault/internal/telemetry"
)

// campaignMeters pre-resolves every metric a campaign records, once,
// before the worker loop.  The handles come from the nil-safe registry:
// with telemetry disabled they are live-but-unregistered metrics, so
// the workers run the identical code either way — a few uncontended
// atomic adds per experiment, nothing per instruction.
type campaignMeters struct {
	planned, resumed, started, finished *telemetry.Counter
	unapplied, corrupted                *telemetry.Counter
	ckptTaken, ckptHits, ckptMisses     *telemetry.Counter
	instrsSkipped                       *telemetry.Gauge
	soloCorrect, soloFailed             *telemetry.Counter
	soloDeadlock                        *telemetry.Counter
	soloFallback, soloInstrs            *telemetry.Counter
	soloDead                            [numDeadRules]*telemetry.Counter
	soloConverged, readIndexInstrs      *telemetry.Counter
	faultLifetime                       *telemetry.Histogram
	peersMaterialized, peersGhost       *telemetry.Counter
	inflight                            *telemetry.Gauge
	outcomes                            [classify.NumOutcomes]*telemetry.Counter
	crashLatency, hangLatency           *telemetry.Histogram
	traceDiffed, traceLoc, traceUnloc   *telemetry.Counter
	traceMsgIndex, traceLatency         *telemetry.Histogram
	// traceDiff mirrors Config.TraceDiff so observe can count
	// unlocalized diffable outcomes only when diffing actually ran.
	traceDiff bool
}

func newCampaignMeters(reg *telemetry.Registry) *campaignMeters {
	m := &campaignMeters{
		planned:           reg.Counter(telemetry.MetricExperimentsPlanned),
		resumed:           reg.Counter(telemetry.MetricExperimentsResumed),
		started:           reg.Counter(telemetry.MetricExperimentsStarted),
		finished:          reg.Counter(telemetry.MetricExperimentsFinished),
		unapplied:         reg.Counter(telemetry.MetricUnapplied),
		corrupted:         reg.Counter(telemetry.MetricMessagesCorrupted),
		ckptTaken:         reg.Counter(telemetry.MetricCheckpointsTaken),
		ckptHits:          reg.Counter(telemetry.MetricCheckpointHits),
		ckptMisses:        reg.Counter(telemetry.MetricCheckpointMisses),
		instrsSkipped:     reg.Gauge(telemetry.MetricInstrsSkipped),
		soloCorrect:       reg.Counter(telemetry.SoloMetric("correct")),
		soloFailed:        reg.Counter(telemetry.SoloMetric("failed")),
		soloDeadlock:      reg.Counter(telemetry.SoloMetric("deadlock")),
		soloFallback:      reg.Counter(telemetry.SoloMetric("fallback")),
		soloInstrs:        reg.Counter(telemetry.MetricSoloInstrs),
		soloConverged:     reg.Counter(telemetry.MetricSoloConverged),
		faultLifetime:     reg.Histogram(telemetry.MetricFaultLifetime, telemetry.LatencyBuckets),
		readIndexInstrs:   reg.Counter(telemetry.MetricReadIndexInstrs),
		inflight:          reg.Gauge(telemetry.MetricExperimentsInflight),
		peersMaterialized: reg.Counter(telemetry.PeerMetric("materialized")),
		peersGhost:        reg.Counter(telemetry.PeerMetric("ghost")),
		crashLatency:      reg.Histogram(telemetry.MetricCrashLatency, telemetry.LatencyBuckets),
		hangLatency:       reg.Histogram(telemetry.MetricHangLatency, telemetry.LatencyBuckets),
		traceDiffed:       reg.Counter(telemetry.MetricTraceDiffed),
		traceLoc:          reg.Counter(telemetry.MetricTraceLocalized),
		traceUnloc:        reg.Counter(telemetry.MetricTraceUnlocalized),
		traceMsgIndex:     reg.Histogram(telemetry.MetricTraceDivergenceMsg, telemetry.TraceMessageBuckets),
		traceLatency:      reg.Histogram(telemetry.MetricTraceLatency, telemetry.LatencyBuckets),
	}
	for o := classify.Outcome(0); o < classify.NumOutcomes; o++ {
		m.outcomes[o] = reg.Counter(telemetry.OutcomeMetric(o.String()))
	}
	for r := deadUnread; r < numDeadRules; r++ {
		m.soloDead[r] = reg.Counter(telemetry.SoloDeadMetric(deadRuleNames[r]))
	}
	return m
}

// observe records one finished experiment.
func (m *campaignMeters) observe(e *Experiment) {
	m.finished.Inc()
	m.outcomes[e.Outcome].Inc()
	if e.Unapplied() {
		m.unapplied.Inc()
	} else if e.Region == RegionMessage {
		m.corrupted.Inc()
	}
	if lat, ok := e.Forensics.Latency(); ok {
		switch e.Outcome {
		case classify.Crash:
			m.crashLatency.Observe(lat)
		case classify.Hang:
			m.hangLatency.Observe(lat)
		}
	}
	if m.traceDiff {
		switch e.Outcome {
		case classify.Incorrect, classify.Hang, classify.Crash:
			m.traceDiffed.Inc()
			if d := e.Divergence(); d != nil {
				m.traceLoc.Inc()
				m.traceMsgIndex.Observe(uint64(d.MsgIndex))
				if d.InstrsSinceInjection > 0 {
					m.traceLatency.Observe(d.InstrsSinceInjection)
				}
			} else {
				m.traceUnloc.Inc()
			}
		}
	}
}
