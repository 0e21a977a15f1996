package core

import (
	"mpifault/internal/classify"
	"mpifault/internal/cluster"
	"mpifault/internal/mpi"
	"mpifault/internal/msgtrace"
	"mpifault/internal/vm"
)

// Forensics is the per-experiment flight record: what the injected
// rank was doing between the fault and its manifestation.  It captures
// the injection point on the instruction axis, the rank's terminal trap
// and retired-instruction count, and the last program counters the
// flight recorder saw.  Campaigns fill it only when Config.Forensics is
// set; a nil record means forensics were disabled (older journals
// deserialize that way too).
type Forensics struct {
	// InjectedAt is the retired-instruction index at which the fault was
	// applied on the target rank (Experiment.Trigger for instruction-
	// triggered regions).  Zero for message faults, whose trigger lives
	// on the received-byte axis.
	InjectedAt uint64 `json:"injected_at,omitempty"`
	// ManifestedAt is the target rank's retired-instruction count when
	// it stopped — at the trap for crashes, at teardown for hangs.
	ManifestedAt uint64 `json:"manifested_at,omitempty"`
	// Trap describes the rank's terminal trap (empty for a clean exit).
	TrapKind string `json:"trap,omitempty"`
	TrapPC   uint32 `json:"trap_pc,omitempty"`
	TrapAddr uint32 `json:"trap_addr,omitempty"`
	TrapMsg  string `json:"trap_msg,omitempty"`
	// BudgetExhausted marks a rank stopped by the livelock instruction
	// budget rather than a trap.
	BudgetExhausted bool `json:"budget_exhausted,omitempty"`
	// LastPCs are the most recently retired program counters on the
	// target rank, oldest first.
	LastPCs []uint32 `json:"last_pcs,omitempty"`
	// Divergence localizes the fault in the message stream: the first
	// output at which the experiment's ranks departed from the golden
	// tapes.
	// Filled only when the campaign ran with Config.TraceDiff and the
	// outcome was Incorrect, Hang or Crash; it stays the last field so
	// PR-4-era journal lines (which predate it) re-marshal byte-
	// identically.
	Divergence *msgtrace.Divergence `json:"divergence,omitempty"`
}

// Latency returns the instruction count from injection to
// manifestation, when both ends are on the instruction axis.  This is
// the §5.2 crash-latency measurement: the paper observes that "most
// crashes occur within a few thousand instructions" of the injection.
func (f *Forensics) Latency() (uint64, bool) {
	if f == nil || f.InjectedAt == 0 || f.ManifestedAt < f.InjectedAt {
		return 0, false
	}
	return f.ManifestedAt - f.InjectedAt, true
}

// Divergence returns the experiment's trace-diff localization record,
// nil when the campaign ran without TraceDiff or no divergence was
// found.
func (e *Experiment) Divergence() *msgtrace.Divergence {
	if e.Forensics == nil {
		return nil
	}
	return e.Forensics.Divergence
}

// forensicsDepth is the flight-recorder ring size: enough PCs to see
// the final call chain without bloating journal lines.  It is also how far
// before its injection every experiment starts (indexForInstr), so the
// ring a restored run fills is the one a run from t=0 fills.
const forensicsDepth = 64

// buildForensics assembles the flight record for the injected rank from
// how it stopped: trap (nil when stopped from outside), its retired
// instructions and the reason.
func buildForensics(e *Experiment, rec *vm.FlightRecorder, t *vm.Trap, instrs uint64, reason vm.StopReason) *Forensics {
	f := &Forensics{
		ManifestedAt:    instrs,
		BudgetExhausted: reason == vm.StopBudget,
		LastPCs:         rec.LastPCs(),
	}
	if e.Region != RegionMessage {
		f.InjectedAt = e.Trigger
	}
	if t != nil && t.Kind != vm.TrapExit {
		f.TrapKind = t.Kind.String()
		f.TrapPC = t.PC
		f.TrapAddr = t.Addr
		f.TrapMsg = t.Msg
	}
	return f
}

// attachDivergence diffs what a finished experiment's ranks said —
// observed, recorded from t=0 — against the golden tapes and attaches the
// first divergence for the outcomes where localization is meaningful:
// Incorrect (whose corruption the divergent output pinpoints), Hang and
// Crash (whose truncated or departing streams name the rank that stopped
// conversing; in a Crash only the crashed rank's truncation counts).  A
// fresh Forensics record is allocated when the campaign ran without the
// flight recorder.
func attachDivergence(e *Experiment, golden, observed []mpi.Tape, crashed int) {
	switch e.Outcome {
	case classify.Incorrect, classify.Hang:
		crashed = -1
	case classify.Crash:
	default:
		return
	}
	d := msgtrace.Diff(golden, observed, crashed)
	if d == nil {
		return
	}
	if e.Region != RegionMessage && d.Rank == e.Rank && d.Instrs >= e.Trigger {
		d.InstrsSinceInjection = d.Instrs - e.Trigger
	}
	if e.Forensics == nil {
		e.Forensics = &Forensics{}
	}
	e.Forensics.Divergence = d
}

// failedRank returns the rank whose trap is res's first failure, -1 for
// none.
func failedRank(res *cluster.Result) int {
	if t := res.FirstFailure(); t != nil {
		for r := range res.Ranks {
			if res.Ranks[r].Trap == t {
				return r
			}
		}
	}
	return -1
}
