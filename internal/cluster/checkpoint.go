package cluster

import (
	"mpifault/internal/mpi"
	"mpifault/internal/vm"
)

// Golden-run snapshots: a job that starts at t=0 can snapshot its ranks as
// it runs.  Each rank snapshots itself when its own clock reaches a
// multiple of the spacing: its machine stops there, between two
// instructions, where no collective's or rendezvous' progress is left on
// the runtime's Go stack, and the rank's machine, MPI runtime state and
// tape position are copied before it goes on in the same resume.  That is
// no scheduling point — the rank never yields for it — so a job that takes
// snapshots runs the schedule, records the tapes and reaches the verdict of
// one that takes none.
//
// A snapshot is one rank's, not the job's: it restores that rank alone,
// into RunSolo or into a job whose other ranks are ghosts of the run it
// was taken in, started at t=0 (Ghosts.Restore).  Either way the rest of
// the world — the packets in flight to the rank, the files, the context
// counter — is what that run's tapes say it was there.

// CheckpointSpec asks a job to snapshot its ranks as they run.
type CheckpointSpec struct {
	// Interval is the spacing of a rank's snapshots, in its own retired
	// instructions; 0 takes none.
	Interval uint64
	// Max caps how many snapshots each rank keeps, 0 for no cap: one more
	// drops every other one and doubles that rank's spacing, so those kept
	// stay spread over its whole run however long it is.
	Max int
}

// RankSnapshot is one rank's state between two of its instructions.
type RankSnapshot struct {
	VM  *vm.Snapshot
	MPI *mpi.ProcSnapshot
	// TapePos is how many events of its tape the rank had recorded
	// (Job.RecordTapes): where RunSolo resumes it, and where its ghost
	// materializes from it.
	TapePos int
}

// Instrs returns the rank's clock at the snapshot.
func (s *RankSnapshot) Instrs() uint64 { return s.VM.Instrs() }

// runSnapshotting is rk.m.Run(budget) that appends a snapshot of rk to
// *snaps each time its clock reaches a multiple of spec's spacing.
func (rk *rank) runSnapshotting(budget uint64, spec CheckpointSpec, snaps *[]RankSnapshot) vm.RunResult {
	spacing := spec.Interval
	for {
		due := (rk.m.Instrs/spacing + 1) * spacing
		if budget != 0 && budget <= due {
			return rk.m.Run(budget)
		}
		if out := rk.m.Run(due); out.Reason != vm.StopBudget {
			return out
		}
		*snaps = append(*snaps, RankSnapshot{VM: rk.m.Snapshot(), MPI: rk.proc.Snapshot(), TapePos: len(rk.proc.Tape())})
		if spec.Max > 0 && len(*snaps) > spec.Max {
			kept := (*snaps)[:0]
			for i := 1; i < len(*snaps); i += 2 {
				kept = append(kept, (*snaps)[i])
			}
			clear((*snaps)[len(kept):])
			*snaps = kept
			spacing *= 2
		}
	}
}
