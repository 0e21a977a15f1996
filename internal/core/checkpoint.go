package core

import "mpifault/internal/cluster"

// Golden-run checkpointing (the Relyzer-style prefix-sharing optimization
// cited in PAPERS.md): everything an experiment's injected rank executes
// before its trigger is, by construction, the golden run's, so the golden
// run snapshots each rank as it runs (cluster.CheckpointSpec) and each
// experiment starts its injected rank from the latest snapshot of that
// rank that precedes its injection, replaying only the residual prefix.
//
// There is one golden pass and one schedule: the run that yields the
// reference output, the instruction counts and the tapes is the run the
// snapshots are taken in, and taking them adds no scheduling point, so
// its tapes are those of a run that takes none and a snapshot's tape
// position indexes them.  The snapshots belong to the Golden: the Run that
// executes it takes them, and every later Run handed that Golden — an
// adaptive campaign's rounds, a coordinator worker's leases — restores
// from the same set.  A Golden is used as it is: one recorded without
// snapshots starts every experiment at t=0, and nothing is captured after
// the fact.
//
// Only the injected rank is restored.  A solo run (solo.go) replays it
// against its tape from the snapshot's position; a whole job starts its
// world at t=0 with every rank a ghost of the golden run, and the injected
// rank materializes from its snapshot when its ghost reaches it
// (cluster.Ghosts).  Restored experiments are indistinguishable from
// scratch runs to the guest, so a fixed-seed campaign's CSV and journal
// are byte-identical with checkpointing on or off.

const (
	// DefaultCheckpointInterval is the spacing, in a rank's own retired
	// instructions, of the golden run's snapshots of it.  It is a floor: a
	// rank that would take more than DefaultMaxCheckpoints at it keeps
	// every other one and doubles its spacing, so they cover its whole
	// execution instead of its start.
	DefaultCheckpointInterval = 12_500
	// DefaultMaxCheckpoints caps the number of snapshots per rank; memory
	// is bounded by snapshots × touched pages (COW-shared).
	DefaultMaxCheckpoints = 32
	// budgetMultiplier scales the golden run's longest rank into the
	// per-rank livelock budget: a rank that retires four times as many
	// instructions is a Hang.
	budgetMultiplier = 4
)

// CheckpointStats summarizes checkpoint usage for one campaign.
type CheckpointStats struct {
	// Taken is the number of snapshots the golden run carries, summed over
	// its ranks; 0 for a run too short for one, or a Golden recorded
	// without.
	Taken int
	// Hits and Misses count experiments whose injected rank started from
	// a snapshot vs from t=0.
	Hits, Misses uint64
	// InstrsSkipped totals the golden-prefix instructions that ranks
	// restored from a snapshot did not execute: the injected rank's, and in
	// a whole job those of the peers that materialized from one (an
	// experiment run both ways counts both).  Every job adds its ranks'
	// final instruction counts to the retired-instructions metric, so
	// retired minus InstrsSkipped is what the campaign really executed.
	InstrsSkipped uint64
}

// indexForInstr returns the latest snapshot of rank from which an
// experiment injecting into it at instruction-count clock can start: at
// least forensicsDepth instructions before the clock — the injection
// trigger, or for a message fault the pull of the packet holding its byte
// — so the injected rank retires as many instructions before the fault as
// the flight recorder keeps, wherever it started.  One rule for every
// campaign, observed or not.  Returns -1 when no snapshot qualifies.
func (c *campaignCtx) indexForInstr(rank int, clock uint64) int {
	best := -1
	if c.snaps == nil {
		return best
	}
	for k := range c.snaps[rank] {
		if c.snaps[rank][k].Instrs()+forensicsDepth <= clock {
			best = k
		}
	}
	return best
}

// snapshotCount returns how many snapshots snaps holds over all ranks.
func snapshotCount(snaps [][]cluster.RankSnapshot) int {
	n := 0
	for _, s := range snaps {
		n += len(s)
	}
	return n
}
