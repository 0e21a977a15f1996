package core

import (
	"bytes"
	"slices"
	"sync"

	"mpifault/internal/cluster"
	"mpifault/internal/mpi"
	"mpifault/internal/vm"
)

// Golden-run checkpointing (the Relyzer-style prefix-sharing optimization
// cited in PAPERS.md): everything an experiment executes before its
// trigger is, by construction, identical to the golden run, so the
// campaign captures periodic consistent snapshots of the golden execution
// and starts each experiment from the latest snapshot that precedes its
// injection epoch, replaying only the residual prefix.
//
// The checkpoints belong to the Golden, not to one Run: the first Run
// with checkpointing on captures them, and every later Run handed that
// Golden — an adaptive campaign's rounds, a coordinator worker's leases
// — restores from the same set.  One set is kept, for the last
// (CheckpointInterval, MaxCheckpoints, DisableSuperblocks) asked for.
//
// The pipeline is two golden passes:
//
//  1. The golden run, which always records every rank's tape, yields
//     per-rank instruction counts and (mpi.Causality) the send/receive
//     instruction pairs of every Channel message.
//  2. computeCuts turns the recorded causality into *consistent* cut
//     vectors (no cut captures a receive whose matching send hasn't
//     happened — Chandy/Lamport's condition, computed offline by a
//     closure over the recorded events), and a second golden run pauses
//     at each cut and snapshots the whole cluster (cluster.CheckpointSpec).
//
// The byte-identity invariant is enforced, not assumed: the second pass
// must terminate cleanly with exactly the golden output and per-rank
// instruction counts, otherwise the checkpoints are discarded and the
// campaign silently falls back to scratch starts (counted in telemetry).
// Restored experiments are indistinguishable from scratch runs to the
// guest, so a fixed-seed campaign's CSV and journal are byte-identical
// with checkpointing on or off.

const (
	// DefaultCheckpointInterval is the golden-run instruction spacing
	// between cluster checkpoints (per cut index, before closure).  It is
	// a floor: runs longer than MaxCheckpoints×interval get their cuts
	// spread evenly instead of bunched at the start (see computeCuts).
	DefaultCheckpointInterval = 12_500
	// DefaultMaxCheckpoints caps the number of checkpoints per campaign;
	// memory is bounded by checkpoints × touched pages (COW-shared).
	DefaultMaxCheckpoints = 32
)

// CheckpointStats summarizes checkpoint usage for one campaign.
type CheckpointStats struct {
	// Taken is the number of checkpoints captured from the golden run.
	Taken int
	// Fallback is set when checkpointing was requested but the capture
	// pass failed validation and the campaign ran from scratch.
	Fallback bool
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

// CheckpointSet holds the captured golden-run checkpoints, ordered by
// cut index (nondecreasing per-rank instruction counts).
type CheckpointSet struct {
	snaps []*cluster.Snapshot
	// tapes are the capture pass's per-rank recordings, the ones
	// snaps[k].Ranks[r].TapePos indexes.
	tapes []mpi.Tape
	// pulled[k][r][s] is how many bytes live rank r had pulled from rank s
	// at snaps[k] (indexForMessage).
	pulledOnce sync.Once
	pulled     [][][]uint64
}

// checkpointKey is what a captured set depends on besides the golden run.
type checkpointKey struct {
	interval uint64
	max      int
	noSB     bool
}

// checkpoints returns the golden's checkpoint set for cfg — nil when the
// capture fell back — running the capture pass only if no set for cfg's
// key is held, so concurrent Runs sharing the Golden wait for one
// capture and telemetry counts captures, not the Runs served by one.
func (g *Golden) checkpoints(cfg *Config, met *campaignMeters) *CheckpointSet {
	key := checkpointKey{cfg.CheckpointInterval, cfg.MaxCheckpoints, cfg.DisableSuperblocks}
	g.ckptMu.Lock()
	defer g.ckptMu.Unlock()
	if g.ckptKey == nil || *g.ckptKey != key {
		g.ckpts, g.ckptKey = buildCheckpoints(cfg, g), &key
		met.ckptTaken.Add(uint64(g.ckpts.Len()))
		if g.ckpts == nil {
			met.ckptFallbacks.Inc()
		}
	}
	return g.ckpts
}

// Len returns the number of checkpoints.
func (cs *CheckpointSet) Len() int {
	if cs == nil {
		return 0
	}
	return len(cs.snaps)
}

// indexForInstr returns the latest checkpoint from which an experiment
// injecting into rank at instruction-count trigger can start: the rank
// must still be live and its retired count at the cut must not exceed
// the trigger (equality is fine — the restored machine fires the trigger
// before executing anything).  Returns -1 when no checkpoint qualifies.
func (cs *CheckpointSet) indexForInstr(rank int, trigger uint64) int {
	best := -1
	if cs == nil {
		return best
	}
	for k, s := range cs.snaps {
		if s.RankLive(rank) && s.RankInstrs(rank) <= trigger {
			best = k
		}
	}
	return best
}

// indexForMessage is indexForInstr for the message region: the clock is
// the bytes rank has pulled from sender, read off the tape the snapshots
// index.  pulled is the count an injector restored there starts from.
func (cs *CheckpointSet) indexForMessage(rank, sender int, offset uint64) (best int, pulled uint64) {
	best = -1
	if cs == nil {
		return best, 0
	}
	// Built by the first message experiment, so that a campaign without
	// one — every set-up run — pays nothing.
	cs.pulledOnce.Do(func() {
		cs.pulled = make([][][]uint64, len(cs.snaps))
		for k, s := range cs.snaps {
			cs.pulled[k] = make([][]uint64, s.Size)
			for r := range cs.pulled[k] {
				if s.RankLive(r) {
					cs.pulled[k][r] = cs.tapes[r].PulledBytes(s.Ranks[r].TapePos, s.Size)
				}
			}
		}
	})
	for k, byRank := range cs.pulled {
		if from := byRank[rank]; from != nil && from[sender] <= offset {
			best, pulled = k, from[sender]
		}
	}
	return best, pulled
}

// computeCuts builds consistent cut vectors from the recorded golden-run
// causality: cut k starts at k·interval for every rank and is closed
// under the happens-before relation of the recorded messages (any
// receive inside the cut pulls its sender's pause point up to the send).
// Cuts are nondecreasing per rank; vacuous ones (no progress over the
// previous cut) are dropped.
func computeCuts(goldenInstrs []uint64, events []mpi.Event, interval uint64, maxCkpts int) [][]uint64 {
	n := len(goldenInstrs)
	if n == 0 || interval == 0 {
		return nil
	}
	maxInstrs := slices.Max(goldenInstrs)
	// The interval is a floor: when the run is longer than maxCkpts
	// evenly-spaced intervals, widen the spacing so the checkpoints cover
	// the whole execution rather than only its first maxCkpts×interval
	// instructions.
	if maxCkpts > 0 {
		if spread := maxInstrs / uint64(maxCkpts+1); spread > interval {
			interval = spread
		}
	}
	prev := make([]uint64, n)
	var cuts [][]uint64
	for k := uint64(1); maxCkpts <= 0 || len(cuts) < maxCkpts; k++ {
		base := k * interval
		if base >= maxInstrs {
			break // at or past the longest rank's end: nothing left to skip
		}
		cut := make([]uint64, n)
		progress := false
		for r := 0; r < n; r++ {
			cut[r] = base
			if cut[r] < prev[r] {
				cut[r] = prev[r]
			}
		}
		closeCut(cut, events)
		for r := 0; r < n; r++ {
			if cut[r] > prev[r] && prev[r] < goldenInstrs[r] {
				progress = true
			}
		}
		if progress {
			cuts = append(cuts, cut)
		}
		prev = cut
	}
	return cuts
}

// closeCut raises pause points until the cut is consistent: no event may
// have its receive inside the cut and its send outside.
func closeCut(cut []uint64, events []mpi.Event) {
	for changed := true; changed; {
		changed = false
		for _, e := range events {
			if e.DstInstr <= cut[e.Dst] && e.SrcInstr > cut[e.Src] {
				cut[e.Src] = e.SrcInstr
				changed = true
			}
		}
	}
}

// captureHeadroom is the capture pass's extra Channel queue depth: no
// rank is ever sent more packets than the golden run delivered to it, so
// with that many more slots no sender blocks on a receiver parked at a cut.
func captureHeadroom(ranks int, events []mpi.Event) int {
	perDst := make([]int, ranks)
	for _, e := range events {
		perDst[e.Dst]++
	}
	return slices.Max(perDst)
}

// buildCheckpoints runs the checkpoint-emitting golden pass and validates
// it against the recorded golden run.  Any deviation — a hang, a
// non-clean exit, a different output, different per-rank instruction or
// byte counts — discards the checkpoints (fallback to scratch starts),
// which is what makes the byte-identity invariant unconditional.
func buildCheckpoints(cfg *Config, golden *Golden) *CheckpointSet {
	events := mpi.Causality(golden.tapes)
	cuts := computeCuts(golden.Instrs, events, cfg.CheckpointInterval, cfg.MaxCheckpoints)
	if len(cuts) == 0 {
		return nil
	}
	cs := &CheckpointSet{}
	spec := &cluster.CheckpointSpec{
		Vectors: cuts,
		OnSnapshot: func(k int, s *cluster.Snapshot) {
			cs.snaps = append(cs.snaps, s)
		},
	}
	res := cluster.Run(cluster.Job{
		Image:              cfg.Image,
		Size:               cfg.Ranks,
		MPIConfig:          cfg.MPIConfig.WithQueueHeadroom(captureHeadroom(cfg.Ranks, events)),
		WallLimit:          cfg.WallLimit,
		Checkpoints:        spec,
		RecordTapes:        true,
		DisableSuperblocks: cfg.DisableSuperblocks,
	})
	if !matchesGolden(res, golden) {
		return nil
	}
	cs.tapes = res.Tapes
	return cs
}

// matchesGolden verifies the checkpoint pass reproduced the golden run.
func matchesGolden(res *cluster.Result, golden *Golden) bool {
	if res.HangDetected || len(res.Ranks) != len(golden.Instrs) {
		return false
	}
	for r := range res.Ranks {
		rr := &res.Ranks[r]
		if rr.Trap == nil || rr.Trap.Kind != vm.TrapExit || rr.Trap.Code != 0 {
			return false
		}
		if rr.Instrs != golden.Instrs[r] || rr.Stats.TotalBytes() != golden.RecvBytes[r] {
			return false
		}
	}
	return bytes.Equal(res.CanonicalOutput(), golden.Output)
}
