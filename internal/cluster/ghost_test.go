package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"mpifault/internal/asm"
	"mpifault/internal/image"
	"mpifault/internal/isa"
	"mpifault/internal/mpi"
	"mpifault/internal/telemetry"
	"mpifault/internal/vm"
)

// A job whose peers are ghosts must be the job with every rank live: the
// same schedule, verdict, outputs and tapes.  Each directed case below
// also checks that the shape it names happened.

// verdict is outcome with each rank's traffic, and without the pc of a
// killed rank: a ghost has none.
func verdict(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "hang=%v %q first=%v\n", res.HangDetected, res.HangCause, res.FirstFailure())
	for r, rr := range res.Ranks {
		trap := fmt.Sprint(rr.Trap)
		if rr.Trap != nil && rr.Trap.Kind == vm.TrapKilled {
			trap = "killed"
		}
		fmt.Fprintf(&b, "rank %d: reason=%d trap=%s instrs=%d %+v\n", r, rr.Reason, trap, rr.Instrs, rr.Stats)
	}
	return b.String()
}

// sameTapes compares tapes event by event.
func sameTapes(a, b []mpi.Tape) bool {
	if len(a) != len(b) {
		return false
	}
	for r := range a {
		if len(a[r]) != len(b[r]) || len(a[r]) > 0 && !reflect.DeepEqual(a[r], b[r]) {
			return false
		}
	}
	return true
}

// haunted runs job with every rank but live a ghost of rec, and with every
// rank live, requires the two to agree, and returns the first.  The
// schedule is compared through the job's metrics: every one but the
// retired instructions, which a ghost does not add to.
func haunted(t *testing.T, job Job, live int, rec *Result) *Result {
	t.Helper()
	run := func(g *Ghosts) (*Result, telemetry.Snapshot) {
		reg := telemetry.New()
		job.Metrics, job.Ghosts = reg, g
		res := Run(job)
		snap := reg.Snapshot()
		delete(snap.Counters, telemetry.MetricInstrsRetired)
		return res, snap
	}
	want, wantMetrics := run(nil)
	got, gotMetrics := run(&Ghosts{Live: live, Golden: rec, Snapshots: rec.Snapshots})
	if a, b := verdict(got), verdict(want); a != b {
		t.Fatalf("with ghosts:\n%s--- all live:\n%s", a, b)
	}
	if !reflect.DeepEqual(got.Stdout, want.Stdout) || !reflect.DeepEqual(got.Stderr, want.Stderr) ||
		!bytes.Equal(got.CanonicalOutput(), want.CanonicalOutput()) {
		t.Errorf("outputs differ:\n%q\n--- all live:\n%q", got.CanonicalOutput(), want.CanonicalOutput())
	}
	if !sameTapes(got.Tapes, want.Tapes) {
		t.Error("the recorded tapes differ")
	}
	if !reflect.DeepEqual(gotMetrics, wantMetrics) {
		t.Errorf("the schedules differ:\n%+v\n--- all live:\n%+v", gotMetrics, wantMetrics)
	}
	if got.Ranks[live].Ghost {
		t.Errorf("rank %d was to run live", live)
	}
	return got
}

// recordRun runs the fault-free job with tapes and, when spec asks for
// them, snapshots: the recorded run ghosts follow.
func recordRun(t *testing.T, job Job, spec CheckpointSpec) *Result {
	t.Helper()
	job.RecordTapes, job.Checkpoints = true, spec
	rec := Run(job)
	mustExitClean(t, rec)
	return rec
}

// lastEvent returns the index of the last event of tape satisfying ok.
func lastEvent(t *testing.T, tape mpi.Tape, ok func(ev *mpi.TapeEvent) bool) int {
	t.Helper()
	for i := len(tape) - 1; i >= 0; i-- {
		if ok(&tape[i]) {
			return i
		}
	}
	t.Fatal("the recorded tape has no such event")
	return -1
}

// dataTo reports whether ev is a send of a payload to rank dst.
func dataTo(dst int32) func(ev *mpi.TapeEvent) bool {
	return func(ev *mpi.TapeEvent) bool {
		return ev.Kind == mpi.TapeSend && ev.Arg == dst && len(ev.Data) > mpi.HeaderBytes
	}
}

// overwrite arms job to store v into the guest word sym on rank at clock.
func overwrite(job *Job, im *image.Image, rank int, clock uint64, sym string, v uint32) {
	s, _ := im.Lookup(sym)
	job.Setup = func(r int, m *vm.Machine, p *mpi.Proc) {
		if r == rank {
			m.TriggerAt = clock
			m.TriggerFn = func(m *vm.Machine) *vm.Trap { m.Store32(s.Addr, v); return nil }
		}
	}
}

// TestGhostNeverMaterializes: peers of a rank that changes nothing they
// see stay ghosts — to their tapes' ends when the rank runs clean, killed
// where they wait when it crashes.
func TestGhostNeverMaterializes(t *testing.T) {
	im := buildRing(t, 8)
	job := Job{Image: im, Size: 4, Budget: 10_000_000, RecordTapes: true}
	rec := recordRun(t, job, CheckpointSpec{})
	const live = 1
	clean := haunted(t, job, live, rec)
	mustExitClean(t, clean)
	job.Setup = func(r int, m *vm.Machine, p *mpi.Proc) {
		if r == live {
			m.TriggerAt = rec.Ranks[live].Instrs / 2
			m.TriggerFn = func(m *vm.Machine) *vm.Trap { m.Regs[isa.SP] = 0x10; return nil }
		}
	}
	crashed := haunted(t, job, live, rec)
	if tr := crashed.FirstFailure(); tr == nil || tr.Kind != vm.TrapSegv {
		t.Fatalf("want rank %d's crash, got:\n%s", live, verdict(crashed))
	}
	for _, res := range []*Result{clean, crashed} {
		for r, rr := range res.Ranks {
			if r != live && !rr.Ghost {
				t.Errorf("rank %d materialized", r)
			}
		}
	}
}

// TestGhostMaterializesOnReorder: the fault only delays rank 0 on its way
// to a scheduling point, so rank 1 is resumed first and rank 2 is sent the
// packets it was sent in the recorded run, in the other order; it
// materializes on the first and parks it as the live rank does.
func TestGhostMaterializesOnReorder(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		initRank(m, f)
		onRank(f, 0, func() { spin(f, 300); send(f, 3); send(f, 2) })
		onRank(f, 1, func() { spin(f, 600); recv(f, 2); send(f, 2) })
		onRank(f, 2, func() { spin(f, 500); send(f, 1); recv(f, 0); recv(f, 1) })
		onRank(f, 3, func() { recv(f, 0) })
		f.CallArgs("MPI_Finalize")
	})
	job := Job{Image: im, Size: 4, Budget: 1_000_000, RecordTapes: true}
	rec := recordRun(t, job, CheckpointSpec{})
	// Inside rank 0's loop, its counter turned back by 4000 iterations.
	at := rec.Tapes[0][firstEvent(t, rec.Tapes[0], func(i int) bool { return dataTo(3)(&rec.Tapes[0][i]) })].Instrs - 100
	job.Setup = func(r int, m *vm.Machine, p *mpi.Proc) {
		if r == 0 {
			m.TriggerAt = at
			m.TriggerFn = func(m *vm.Machine) *vm.Trap { m.Regs[isa.R4] -= 4000; return nil }
		}
	}
	res := haunted(t, job, 0, rec)
	mustExitClean(t, res)
	if res.Ranks[2].Ghost {
		t.Fatalf("rank 2 must materialize:\n%s", verdict(res))
	}
	pulls := func(tape mpi.Tape) (p [][]byte) {
		for _, ev := range tape {
			if ev.Kind == mpi.TapeRecv && len(ev.Data) > mpi.HeaderBytes {
				p = append(p, ev.Data)
			}
		}
		return p
	}
	got, want := pulls(res.Tapes[2]), pulls(rec.Tapes[2])
	if len(got) != 2 || len(want) != 2 || !bytes.Equal(got[0], want[1]) || !bytes.Equal(got[1], want[0]) {
		t.Errorf("rank 2 pulled %d packets, want the recorded two in the other order", len(got))
	}
}

// TestGhostMaterializesFromLaterSnapshot: rank 2 computes through most of
// the run and then receives a packet the fault changed.  The job starts
// from the first snapshot, and rank 2 materializes from the last one
// before its receive.
func TestGhostMaterializesFromLaterSnapshot(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		initRank(m, f)
		onRank(f, 0, func() { spin(f, 6000); send(f, 2) })
		onRank(f, 1, func() { spin(f, 6000) })
		onRank(f, 2, func() { spin(f, 6000); recv(f, 0) })
		f.CallArgs("MPI_Finalize")
	})
	job := Job{Image: im, Size: 3, Budget: 1_000_000, RecordTapes: true}
	rec := recordRun(t, job, CheckpointSpec{Interval: 2000})
	if len(rec.Snapshots) < 4 {
		t.Fatalf("%d snapshots", len(rec.Snapshots))
	}
	job.Restore = rec.Snapshots[0]
	overwrite(&job, im, 0, rec.Tapes[0][lastEvent(t, rec.Tapes[0], dataTo(2))].Instrs-100, "buf", 0xdeadbeef)
	res := haunted(t, job, 0, rec)
	from := res.Ranks[2].From
	later := false
	for _, s := range rec.Snapshots[1:] {
		later = later || s.RankLive(2) && s.RankInstrs(2) == from
	}
	if res.Ranks[2].Ghost || !later || from <= job.Restore.RankInstrs(2) {
		t.Fatalf("rank 2 materialized from clock %d, the job started it at %d:\n%s",
			from, job.Restore.RankInstrs(2), verdict(res))
	}
}

// TestGhostBlockedOnFullQueue: ghost rank 0 streams packets into the
// one-slot queue of live rank 1, which computes first: the ghost waits for
// room as the rank would, and materializes on the answer the fault
// changed.
func TestGhostBlockedOnFullQueue(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		initRank(m, f)
		onRank(f, 0, func() {
			for i := 0; i < 6; i++ {
				send(f, 1)
			}
			recv(f, 1)
		})
		onRank(f, 1, func() {
			spin(f, 3000)
			for i := 0; i < 6; i++ {
				recv(f, 0)
			}
			send(f, 0)
		})
		f.CallArgs("MPI_Finalize")
	})
	job := Job{Image: im, Size: 2, Budget: 1_000_000, RecordTapes: true, MPIConfig: mpi.Config{QueueDepth: 1}}
	rec := recordRun(t, job, CheckpointSpec{})
	tape := rec.Tapes[1]
	reply := lastEvent(t, tape, dataTo(0))
	last := lastEvent(t, tape[:reply], func(ev *mpi.TapeEvent) bool { return ev.Kind == mpi.TapeRecv })
	// Between rank 1's last pull and its reply.
	overwrite(&job, im, 1, (tape[last].Instrs+tape[reply].Instrs)/2, "buf", 0xdeadbeef)
	res := haunted(t, job, 1, rec)
	if res.Ranks[0].Ghost {
		t.Fatalf("rank 0 must materialize on the changed reply:\n%s", verdict(res))
	}
	// Its sends went out before rank 1 pulled any: it waited on every one
	// but the first.
	sends := 0
	for _, ev := range rec.Tapes[0] {
		if dataTo(1)(&ev) && ev.Instrs < tape[firstEvent(t, tape, func(i int) bool { return tape[i].Kind == mpi.TapeRecv })].Instrs {
			sends++
		}
	}
	if sends != 6 {
		t.Errorf("%d of rank 0's sends precede rank 1's first pull, want all 6", sends)
	}
}

// FuzzTapeReplay: whatever a recorded tape is edited into — a flipped
// byte, another kind, scalar or answer, an event dropped, repeated or
// moved, the tape cut short — the rank run alone against it, and the job
// in which it is a ghost of it, end: in a trap, a departure, a
// materialization or a verdict, within the budget, never in a panic or a
// wait.
func FuzzTapeReplay(f *testing.F) {
	const size, budget = 6, 2_000_000
	job := Job{Image: buildCommFiles(f), Size: size, Budget: budget, WallLimit: 10 * time.Second}
	job.RecordTapes, job.Checkpoints = true, CheckpointSpec{Interval: 40}
	rec := Run(job)
	if rec.FailureSummary() != "" || len(rec.Snapshots) == 0 {
		f.Fatalf("the recording failed or took no snapshot: %q", rec.FailureSummary())
	}
	job.RecordTapes, job.Checkpoints = false, CheckpointSpec{}

	// The directed departures of TestRunSoloDepartures and TestTapeDepartures,
	// on rank 0, which allocates the contexts and opens, writes and sends.
	const (
		opFlip = iota
		opKind
		opArg
		opRet
		opDrop
		opRepeat
		opCut
		opSwap
		opNone
	)
	tape := rec.Tapes[0]
	at := func(ok func(ev *mpi.TapeEvent) bool) uint16 {
		return uint16(firstEvent(f, tape, func(i int) bool { return ok(&tape[i]) }))
	}
	kind := func(k mpi.TapeKind) func(ev *mpi.TapeEvent) bool {
		return func(ev *mpi.TapeEvent) bool { return ev.Kind == k }
	}
	payload := func(ev *mpi.TapeEvent) bool { return ev.Kind == mpi.TapeSend && len(ev.Data) > mpi.HeaderBytes }
	sendThenRecv := uint16(firstEvent(f, tape, func(i int) bool {
		return i+1 < len(tape) && tape[i].Kind == mpi.TapeSend && tape[i+1].Kind == mpi.TapeRecv
	}))
	for _, s := range []struct {
		op      uint8
		at, arg uint16
	}{
		{opFlip, at(payload), mpi.HeaderBytes}, // a flipped payload byte in a send
		{opArg, at(kind(mpi.TapeSend)), 1},     // a send to another rank
		{opSwap, sendThenRecv, 0},              // a send and a receive reordered
		{opKind, at(kind(mpi.TapeRecv)), uint16(mpi.TapeSend)},
		{opFlip, at(kind(mpi.TapeOpen)), 0}, // another file name
		{opArg, at(kind(mpi.TapeWrite)), 1}, // the wrong fd
		{opFlip, at(kind(mpi.TapeWrite)), 0},
		{opArg, at(kind(mpi.TapeCtx)), 1}, // another context count
		{opCut, uint16(len(tape) / 2), 0}, // the tape exhausted
		{opRepeat, uint16(len(tape) - 1), 0},
		{opNone, 0, 0},
	} {
		f.Add(uint8(0), s.op, s.at, s.arg)
	}
	f.Fuzz(func(t *testing.T, rank, op uint8, at, arg uint16) {
		r := int(rank) % size
		tape := append(mpi.Tape(nil), rec.Tapes[r]...)
		if len(tape) == 0 {
			return
		}
		i := int(at) % len(tape)
		ev := &tape[i]
		switch op % (opNone + 1) {
		case opFlip:
			if len(ev.Data) > 0 {
				ev.Data = append([]byte(nil), ev.Data...)
				ev.Data[int(arg)%len(ev.Data)] ^= byte(arg>>8) | 1
			}
		case opKind:
			ev.Kind = mpi.TapeKind(arg)
		case opArg:
			ev.Arg += int32(int16(arg)) | 1
		case opRet:
			ev.Ret += int32(int16(arg)) | 1
		case opDrop:
			tape = append(tape[:i], tape[i+1:]...)
		case opRepeat:
			tape = append(tape[:i+1], tape[i:]...)
		case opCut:
			tape = tape[:i]
		case opSwap:
			if i+1 < len(tape) {
				tape[i], tape[i+1] = tape[i+1], tape[i]
			}
		}

		if solo := RunSolo(job, r, tape); solo.Instrs > budget {
			t.Errorf("alone, rank %d ran %d instructions past its budget", r, solo.Instrs)
		}
		golden := *rec
		golden.Tapes = append([]mpi.Tape(nil), rec.Tapes...)
		golden.Tapes[r] = tape
		g := job
		g.Ghosts = &Ghosts{Live: (r + 1) % size, Golden: &golden, Snapshots: rec.Snapshots}
		res := Run(g)
		if res.HangCause == "wall-clock limit" {
			t.Fatalf("the job with rank %d a ghost of the edited tape did not end:\n%s", r, verdict(res))
		}
		for q, rr := range res.Ranks {
			if rr.Trap == nil && rr.Reason != vm.StopBudget || rr.Instrs > budget {
				t.Errorf("rank %d ended neither in a trap nor at the budget:\n%s", q, verdict(res))
			}
		}
	})
}
