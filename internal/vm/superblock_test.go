package vm

import (
	"sync/atomic"
	"testing"

	"mpifault/internal/abi"
	"mpifault/internal/asm"
	"mpifault/internal/image"
	"mpifault/internal/isa"
)

// Directed tests for the superblock tier's correctness anchors
// (superblock.go): event-boundary exactness, mid-block trigger splitting,
// text-flip block invalidation, snapshot/restore of compiled state, and
// the Run stop-latency bound.  The app-level differential suite
// (predecode_differential_test.go) covers the same anchors end to end;
// these tests pin the mechanisms white-box so a regression names the
// broken part instead of "some app diverged".

// sbLoopImage links the benchmark's mixed integer/FP loop with a chosen
// trip count: eight instructions per iteration spanning ALU, FP stack
// and BSS memory, so compiled runs cover every hot uop family.
func sbLoopImage(t *testing.T, trip int32) *image.Image {
	t.Helper()
	ab := asm.NewBuilder()
	m := ab.Module("sbt", image.OwnerUser)
	m.BSS("scratch", 16)
	f := m.Func("main")
	f.Movi(isa.R1, 0)
	f.Movi(isa.R2, trip)
	loop := f.NewLabel()
	f.Label(loop)
	f.Addi(isa.R1, isa.R1, 1)
	f.Xori(isa.R3, isa.R1, 0x55)
	f.FldConst(1.5)
	f.FldConst(2.5)
	f.Fmulp()
	f.FstpSym("scratch", 0)
	f.Cmp(isa.R1, isa.R2)
	f.Blt(loop)
	f.Movi(isa.R0, 0)
	f.Sys(abi.SysExit)
	im, err := ab.Link(asm.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// archState is everything architecturally observable about a machine.
type archState struct {
	Regs   [isa.NumGPR]uint32
	PC     uint32
	Flags  uint32
	FP     FPEnv
	Instrs uint64
	MinSP  uint32
}

func stateOf(m *Machine) archState {
	return archState{Regs: m.Regs, PC: m.PC, Flags: m.Flags, FP: m.FP,
		Instrs: m.Instrs, MinSP: m.MinSP}
}

func sameTrap(a, b *Trap) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || (a.Kind == b.Kind && a.PC == b.PC && a.Code == b.Code)
}

// pcRecorder captures the exact Exec callback stream.
type pcRecorder struct{ pcs []uint32 }

func (r *pcRecorder) Exec(pc uint32) { r.pcs = append(r.pcs, pc) }

func (r *pcRecorder) Load(uint32, int)  {}
func (r *pcRecorder) Store(uint32, int) {}

// TestSuperblockEndTable pins the structural invariants of the compiled
// run-end table that runBlocks and sbInvalidate rely on: every slot is a
// valid block entry, end is monotone non-decreasing, interior slots share
// their run's end (the suffix property), and only the final uop of a run
// may terminate.
func TestSuperblockEndTable(t *testing.T) {
	im := sbLoopImage(t, 100)
	prog, end := compileSuperblocks(isa.DecodeAll(im.Text))
	if len(prog) != len(end) || len(prog) == 0 {
		t.Fatalf("len(prog)=%d len(end)=%d", len(prog), len(end))
	}
	for s := range prog {
		e := end[s]
		if e <= uint32(s) || e > uint32(len(prog)) {
			t.Fatalf("end[%d]=%d out of range (%d slots)", s, e, len(prog))
		}
		if s+1 < len(end) && end[s] > end[s+1] {
			t.Fatalf("end not monotone at slot %d: %d > %d", s, end[s], end[s+1])
		}
		for q := uint32(s) + 1; q < e; q++ {
			if end[q] != e {
				t.Fatalf("interior slot %d of run [%d,%d) has end %d", q, s, e, end[q])
			}
		}
		for q := uint32(s); q < e-1; q++ {
			if prog[q].kind.terminates() {
				t.Fatalf("slot %d terminates mid-run [%d,%d)", q, s, e)
			}
		}
	}
	// The loop image must actually produce a multi-instruction run, or
	// every block test in this file is vacuous.
	long := false
	for s := range end {
		if end[s]-uint32(s) >= 4 {
			long = true
		}
	}
	if !long {
		t.Fatal("no run of length >= 4 compiled; block tests would be vacuous")
	}
}

// midRunTrigger finds an instruction count T (>= lo) at which the machine
// is about to execute an instruction strictly inside a compiled run —
// i.e. the trigger will split a superblock, not land on a block edge.
func midRunTrigger(t *testing.T, im *image.Image, lo uint64) uint64 {
	t.Helper()
	rec := &pcRecorder{}
	m := New(im)
	m.DisableSuperblocks()
	m.Tracer = rec
	m.Handler = &testHandler{}
	m.Run(10_000)
	ref := New(im) // only for its run-end table
	for i := lo; i < uint64(len(rec.pcs)); i++ {
		slot := (rec.pcs[i] - image.TextBase) / isa.InstrBytes
		if slot > 0 && ref.sbEnd[slot-1] > slot {
			return i
		}
	}
	t.Fatal("no mid-run instruction found; loop image compiled to single-uop runs?")
	return 0
}

// TestSuperblockMidBlockTriggerSplit: a TriggerAt that lands strictly
// inside a compiled run must fire at the identical retired-instruction
// count and PC as the per-instruction interpreter, and a fault injected
// there must produce the identical downstream execution.
func TestSuperblockMidBlockTriggerSplit(t *testing.T) {
	im := sbLoopImage(t, 400)
	trig := midRunTrigger(t, im, 10)

	type seen struct {
		instrs uint64
		pc     uint32
	}
	run := func(disable bool) (seen, RunResult, archState) {
		m := New(im)
		if disable {
			m.DisableSuperblocks()
		}
		var at seen
		m.TriggerAt = trig
		m.TriggerFn = func(m *Machine) *Trap {
			at = seen{m.Instrs, m.PC}
			m.Regs[isa.R1] ^= 1 << 9 // inject: downstream must diverge identically
			return nil
		}
		m.Handler = &testHandler{}
		out := m.Run(100_000)
		return at, out, stateOf(m)
	}

	sbAt, sbOut, sbState := run(false)
	inAt, inOut, inState := run(true)
	if sbAt != inAt {
		t.Fatalf("trigger fired at %+v superblock vs %+v interp", sbAt, inAt)
	}
	if sbAt.instrs != trig {
		t.Fatalf("trigger fired at instr %d, want %d", sbAt.instrs, trig)
	}
	if sbOut.Reason != inOut.Reason || !sameTrap(sbOut.Trap, inOut.Trap) {
		t.Fatalf("stop diverged: %+v vs %+v", sbOut, inOut)
	}
	if sbState != inState {
		t.Fatalf("post-injection state diverged:\n sb: %+v\n in: %+v", sbState, inState)
	}
}

// TestSuperblockTracerParity: a non-nil Tracer must see the identical
// per-PC Exec stream from compiled blocks as from the interpreter.
func TestSuperblockTracerParity(t *testing.T) {
	im := sbLoopImage(t, 50)
	trace := func(disable bool) []uint32 {
		m := New(im)
		if disable {
			m.DisableSuperblocks()
		}
		rec := &pcRecorder{}
		m.Tracer = rec
		m.Handler = &testHandler{}
		if out := m.Run(100_000); out.Trap == nil || out.Trap.Kind != TrapExit {
			t.Fatalf("run: %+v", out)
		}
		return rec.pcs
	}
	sb, in := trace(false), trace(true)
	if len(sb) != len(in) {
		t.Fatalf("traced %d PCs superblock vs %d interp", len(sb), len(in))
	}
	for i := range sb {
		if sb[i] != in[i] {
			t.Fatalf("PC stream diverges at %d: %08x vs %08x", i, sb[i], in[i])
		}
	}
}

// TestSuperblockTextFlipInvalidation: a RawWrite into text must truncate
// the machine-local run-end table — cloning the shared one first — so no
// compiled run executes into the overwritten slot, while sibling machines
// on the same image keep the intact shared table.
func TestSuperblockTextFlipInvalidation(t *testing.T) {
	im := predecodeImage(t) // 5 straight-line instructions ending in Sys
	a, b := New(im), New(im)
	n := uint32(len(a.sbEnd))
	if n < 5 {
		t.Fatalf("expected >= 5 slots, got %d", n)
	}
	if a.sbEndOwned || &a.sbEnd[0] != &b.sbEnd[0] {
		t.Fatal("fresh machines must share the image's run-end table")
	}
	orig := append([]uint32(nil), b.sbEnd...)

	const dirty = 2
	addr := image.TextBase + dirty*isa.InstrBytes
	if !a.RawWrite(addr, []byte{0xff}) {
		t.Fatal("text write failed")
	}
	if !a.sbEndOwned {
		t.Fatal("invalidation did not clone the shared table")
	}
	if a.sbEnd[dirty] != dirty {
		t.Fatalf("dirty slot end = %d, want %d (empty run -> Step fallback)",
			a.sbEnd[dirty], dirty)
	}
	for s := uint32(0); s < dirty; s++ {
		if a.sbEnd[s] != dirty {
			t.Fatalf("slot %d run end = %d, want truncated to %d", s, a.sbEnd[s], dirty)
		}
	}
	for s := uint32(dirty + 1); s < n; s++ {
		if a.sbEnd[s] != b.sbEnd[s] {
			t.Fatalf("slot %d past the dirty slot was truncated (%d vs %d)",
				s, a.sbEnd[s], b.sbEnd[s])
		}
	}
	if b.sbEndOwned {
		t.Fatal("sibling machine claims ownership it never took")
	}
	for s := range orig {
		if b.sbEnd[s] != orig[s] {
			t.Fatalf("sibling's shared table modified at slot %d: %d -> %d",
				s, orig[s], b.sbEnd[s])
		}
	}

	// The truncated machine must fault exactly at the corrupted slot and
	// the sibling must still run clean.
	if out := runToStop(t, a); out.Trap == nil || out.Trap.Kind != TrapIll || out.Trap.PC != addr {
		t.Fatalf("corrupted machine: %+v, want SIGILL@%08x", out.Trap, addr)
	}
	if out := runToStop(t, b); out.Trap == nil || out.Trap.Kind != TrapExit {
		t.Fatalf("sibling machine: %+v, want clean exit", out.Trap)
	}
}

// TestSuperblockTextFlipMidRun: corrupting the loop body from a trigger
// while blocks over it are hot must fault identically under both tiers —
// the dirty-slot truncation may not let an already-compiled run mask the
// corruption.
func TestSuperblockTextFlipMidRun(t *testing.T) {
	im := sbLoopImage(t, 1<<20)
	trig := midRunTrigger(t, im, 40)
	run := func(disable bool) (RunResult, uint64) {
		m := New(im)
		if disable {
			m.DisableSuperblocks()
		}
		m.TriggerAt = trig
		m.TriggerFn = func(m *Machine) *Trap {
			// Overwrite the instruction the machine is about to execute.
			if !m.RawWrite(m.PC, []byte{0xff}) {
				t.Error("text write failed")
			}
			return nil
		}
		m.Handler = &testHandler{}
		out := m.Run(1_000_000)
		return out, m.Instrs
	}
	sbOut, sbInstrs := run(false)
	inOut, inInstrs := run(true)
	if sbOut.Trap == nil || sbOut.Trap.Kind != TrapIll {
		t.Fatalf("superblock run: %+v, want SIGILL", sbOut.Trap)
	}
	if !sameTrap(sbOut.Trap, inOut.Trap) || sbInstrs != inInstrs {
		t.Fatalf("diverged: %+v after %d instrs vs %+v after %d",
			sbOut.Trap, sbInstrs, inOut.Trap, inInstrs)
	}
	// Step counts the faulting instruction before raising the trap, so the
	// corrupted instruction at the trigger point retires the count to trig+1.
	if sbInstrs != trig+1 {
		t.Fatalf("faulted after %d instrs, want %d (trigger+1)", sbInstrs, trig+1)
	}
}

// TestSuperblockSnapshotRestore: snapshots carry no compiled state.  A
// snapshot taken mid-block must restore to a machine that re-derives the
// shared uop program and finishes bit-identically to the uninterrupted
// run; a snapshot of a text-dirty machine must re-derive the run-end
// truncations from the dirty bitmap.
func TestSuperblockSnapshotRestore(t *testing.T) {
	im := sbLoopImage(t, 300)
	trig := midRunTrigger(t, im, 10) // a budget stop at trig lands mid-run

	// Uninterrupted reference run.
	ref := New(im)
	ref.Handler = &testHandler{}
	refOut := ref.Run(100_000)
	if refOut.Trap == nil || refOut.Trap.Kind != TrapExit {
		t.Fatalf("reference run: %+v", refOut)
	}

	// Stop mid-block, snapshot, restore, finish.
	m := New(im)
	m.Handler = &testHandler{}
	if out := m.Run(trig); out.Reason != StopBudget || m.Instrs != trig {
		t.Fatalf("budget stop: %+v at %d instrs, want StopBudget at %d", out, m.Instrs, trig)
	}
	snap := m.Snapshot()
	if snap.Instrs() != trig {
		t.Fatalf("snapshot instrs = %d, want %d", snap.Instrs(), trig)
	}
	r := snap.NewMachine()
	if r.sbProg == nil || r.sbEnd == nil || r.pre == nil {
		t.Fatal("restored machine did not re-derive compiled state")
	}
	if r.sbEndOwned {
		t.Fatal("clean snapshot restored an owned (truncated) run-end table")
	}
	r.Handler = &testHandler{}
	rOut := r.Run(100_000)
	if rOut.Reason != refOut.Reason || !sameTrap(rOut.Trap, refOut.Trap) {
		t.Fatalf("restored run stop diverged: %+v vs %+v", rOut, refOut)
	}
	if rs, refs := stateOf(r), stateOf(ref); rs != refs {
		t.Fatalf("restored final state diverged:\n got: %+v\nwant: %+v", rs, refs)
	}

	// The original machine keeps running past its snapshot too.
	mOut := m.Run(100_000)
	if !sameTrap(mOut.Trap, refOut.Trap) || stateOf(m) != stateOf(ref) {
		t.Fatalf("snapshotted machine diverged after capture: %+v", mOut)
	}

	// Dirty-bitmap rebuild: corrupt text, snapshot, and the restored
	// machine's truncations must match the original's exactly.
	d := New(im)
	if !d.RawWrite(image.TextBase+3*isa.InstrBytes, []byte{0xff}) {
		t.Fatal("text write failed")
	}
	rd := d.Snapshot().NewMachine()
	if !rd.sbEndOwned {
		t.Fatal("dirty snapshot restored without rebuilding truncations")
	}
	for s := range d.sbEnd {
		if rd.sbEnd[s] != d.sbEnd[s] {
			t.Fatalf("rebuilt run-end table diverges at slot %d: %d vs %d",
				s, rd.sbEnd[s], d.sbEnd[s])
		}
	}
}

// TestRunStopLatency pins both halves of Run's documented stop-latency
// bound: a Stop set before Run is entered is honoured before any
// instruction retires (even at a non-aligned instruction count), and a
// Stop set mid-run is honoured at the next 4096-instruction poll
// boundary.
func TestRunStopLatency(t *testing.T) {
	im := sbLoopImage(t, 1<<30)

	// Pre-set Stop: killed before the first instruction.
	m := New(im)
	m.Handler = &testHandler{}
	var stop atomic.Bool
	m.Stop = &stop
	stop.Store(true)
	if out := m.Run(1000); out.Trap == nil || out.Trap.Kind != TrapKilled {
		t.Fatalf("pre-set stop: %+v, want TrapKilled", out)
	}
	if m.Instrs != 0 {
		t.Fatalf("pre-set stop retired %d instructions, want 0", m.Instrs)
	}

	// Pre-set Stop at a non-aligned count: a machine parked at instruction
	// 100 (not a poll boundary) must still be killed on re-entry, not
	// 3996 instructions later.
	for _, disable := range []bool{false, true} {
		m := New(im)
		if disable {
			m.DisableSuperblocks()
		}
		m.Handler = &testHandler{}
		var stop atomic.Bool
		m.Stop = &stop
		if out := m.Run(100); out.Reason != StopBudget || m.Instrs != 100 {
			t.Fatalf("budget stop: %+v at %d instrs", out, m.Instrs)
		}
		stop.Store(true)
		if out := m.Run(0); out.Trap == nil || out.Trap.Kind != TrapKilled {
			t.Fatalf("re-entry stop: %+v, want TrapKilled", out)
		}
		if m.Instrs != 100 {
			t.Fatalf("re-entry stop retired %d extra instructions", m.Instrs-100)
		}
	}

	// Mid-run Stop: set at instruction 5000 via the trigger, honoured at
	// the next multiple of 4096 (= 8192), identically under both tiers.
	for _, disable := range []bool{false, true} {
		m := New(im)
		if disable {
			m.DisableSuperblocks()
		}
		m.Handler = &testHandler{}
		var stop atomic.Bool
		m.Stop = &stop
		m.TriggerAt = 5000
		m.TriggerFn = func(*Machine) *Trap { stop.Store(true); return nil }
		out := m.Run(0)
		if out.Trap == nil || out.Trap.Kind != TrapKilled {
			t.Fatalf("mid-run stop (disable=%v): %+v, want TrapKilled", disable, out)
		}
		if m.Instrs != 8192 {
			t.Fatalf("mid-run stop (disable=%v) honoured at %d instrs, want poll boundary 8192",
				disable, m.Instrs)
		}
	}
}
