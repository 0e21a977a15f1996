package core

// Golden-run checkpointing (the Relyzer-style prefix-sharing optimization
// cited in PAPERS.md): everything an experiment executes before its
// trigger is, by construction, identical to the golden run, so the golden
// run snapshots itself periodically (cluster.CheckpointSpec) and each
// experiment starts from the latest snapshot that precedes its injection
// epoch, replaying only the residual prefix.
//
// There is one golden pass: the run that yields the reference output, the
// instruction counts and the tapes is the run the snapshots are cut from,
// so a snapshot's tape positions index the golden's own tapes.  The
// snapshots belong to the Golden: the Run that executes it takes them, and
// every later Run handed that Golden — an adaptive campaign's rounds, a
// coordinator worker's leases — restores from the same set.  A Golden is
// used as it is: one recorded without snapshots starts every experiment
// at t=0, and nothing is captured after the fact.
//
// Restored experiments are indistinguishable from scratch runs to the
// guest, so a fixed-seed campaign's CSV and journal are byte-identical
// with checkpointing on or off.

const (
	// DefaultCheckpointInterval is the golden-run instruction spacing
	// between cluster checkpoints.  It is a floor: a run that would take
	// more than DefaultMaxCheckpoints at it keeps every other one and
	// doubles the spacing, so they cover the whole execution instead of
	// its start.
	DefaultCheckpointInterval = 12_500
	// DefaultMaxCheckpoints caps the number of checkpoints per campaign;
	// memory is bounded by checkpoints × touched pages (COW-shared).
	DefaultMaxCheckpoints = 32
	// budgetMultiplier scales the golden run's longest rank into the
	// per-rank livelock budget: a rank that retires four times as many
	// instructions is a Hang.
	budgetMultiplier = 4
)

// CheckpointStats summarizes checkpoint usage for one campaign.
type CheckpointStats struct {
	// Taken is the number of checkpoints the golden run carries; 0 for a
	// run too short for one, or a Golden recorded without.
	Taken int
	// Hits and Misses count experiments started from a checkpoint vs
	// from t=0.
	Hits, Misses uint64
	// InstrsSkipped totals the golden-prefix instructions that jobs
	// restored from a checkpoint did not execute: summed across all ranks
	// for a whole job, the injected rank's alone for a solo run (an
	// experiment run both ways counts both).  Every job adds its ranks'
	// final instruction counts to the retired-instructions metric, so
	// retired minus InstrsSkipped is what the campaign really executed.
	InstrsSkipped uint64
}

// indexForInstr returns the latest checkpoint from which an experiment
// injecting into rank at instruction-count clock can start: the rank must
// still be live there, and at least forensicsDepth instructions before
// the clock — the injection trigger, or for a message fault the pull of
// the packet holding its byte — so the injected rank retires as many
// instructions before the fault as the flight recorder keeps, wherever it
// started.  One rule for every campaign, observed or not.  Returns -1
// when no checkpoint qualifies.
func (c *campaignCtx) indexForInstr(rank int, clock uint64) int {
	best := -1
	for k, s := range c.snaps {
		if s.RankLive(rank) && s.RankInstrs(rank)+forensicsDepth <= clock {
			best = k
		}
	}
	return best
}
