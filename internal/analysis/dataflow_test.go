package analysis

import (
	"testing"

	"mpifault/internal/asm"
	"mpifault/internal/guest"
	"mpifault/internal/image"
	"mpifault/internal/isa"
)

// buildApp links libc+libmpi plus a user module fully authored by body
// (unlike buildWith, body must emit main itself, so fixtures can be
// called from main and become interprocedurally reachable).
func buildApp(t *testing.T, body func(m *asm.Module)) *image.Image {
	t.Helper()
	b := asm.NewBuilder()
	guest.AddLibc(b)
	guest.AddLibMPI(b)
	m := b.Module("app", image.OwnerUser)
	body(m)
	im, err := b.Link(asm.LinkConfig{})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return im
}

// dataflowFor analyzes the image, runs the dataflow pass, and fails the
// test on any finding from any pass — every fixture here is well-formed,
// so a finding (in particular a "dataflow" cross-check finding) is an
// analyzer bug.
func dataflowFor(t *testing.T, im *image.Image) (*Program, *Liveness, *Dataflow) {
	t.Helper()
	prog, live, all := analyzeImage(t, im)
	flow := ComputeDataflow(prog, live)
	all = append(all, flow.Findings...)
	for _, f := range all {
		t.Errorf("unexpected finding: %s", f)
	}
	return prog, live, flow
}

func funcCFG(t *testing.T, prog *Program, name string) *FuncCFG {
	t.Helper()
	for _, f := range prog.Funcs {
		if f.Sym.Name == name {
			return f
		}
	}
	t.Fatalf("function %q not analyzed", name)
	return nil
}

// addrOfOp returns the address of the n-th (0-based) occurrence of op.
func addrOfOp(t *testing.T, f *FuncCFG, op isa.Op, n int) uint32 {
	t.Helper()
	for i, in := range f.Instrs {
		if in.Op == op {
			if n == 0 {
				return f.Addr(i)
			}
			n--
		}
	}
	t.Fatalf("%s: occurrence of %v not found", f.Sym.Name, op)
	return 0
}

// TestFirstUseChains: a straight-line def-use chain.  Every boundary
// between the def and the first use carries the same first-use set (and
// hence the same class ID); past the last use the set is empty and the
// site is provably benign.
func TestFirstUseChains(t *testing.T) {
	im := buildWith(t, func(m *asm.Module) {
		f := m.Func("chain")
		f.Prologue(0)
		f.Movi(isa.R1, 5)
		f.Movi(isa.R2, 6)
		f.Movi(isa.R3, 7)
		f.Add(isa.R4, isa.R1, isa.R2)
		f.Movi(isa.R0, 0)
		f.Epilogue()
	})
	prog, _, flow := dataflowFor(t, im)
	f := funcCFG(t, prog, "chain")

	addAddr := addrOfOp(t, f, isa.OpAdd, 0)
	refs, ok := flow.FirstUses(addAddr, 1)
	if !ok || len(refs) != 1 || refs[0].Addr != addAddr || refs[0].Slot != SlotRa {
		t.Fatalf("FirstUses(add, r1) = %v, %v; want [{add ra}]", refs, ok)
	}

	// Same set — same class — at every boundary from the def to the use.
	want, _ := flow.ClassID(addAddr, 1)
	if want == 0 {
		t.Fatal("r1 live at its use but ClassID is 0")
	}
	for n := 1; n <= 2; n++ { // the movi r2 / movi r3 boundaries
		pc := addrOfOp(t, f, isa.OpMovi, n)
		if id, ok := flow.ClassID(pc, 1); !ok || id != want {
			t.Errorf("ClassID(%#x, r1) = %d, %v; want %d", pc, id, ok, want)
		}
	}

	// r2 enters through the other operand slot: a different class.
	if id, _ := flow.ClassID(addAddr, 2); id == want || id == 0 {
		t.Errorf("ClassID(add, r2) = %d; want nonzero and distinct from r1's %d", id, want)
	}

	// Past the last use the value is provably benign.
	deadAddr := addrOfOp(t, f, isa.OpMovi, 3) // movi r0, 0
	if refs, ok := flow.FirstUses(deadAddr, 1); !ok || len(refs) != 0 {
		t.Errorf("FirstUses(after add, r1) = %v, %v; want empty", refs, ok)
	}
	if id, ok := flow.ClassID(deadAddr, 1); !ok || id != 0 {
		t.Errorf("ClassID(after add, r1) = %d, %v; want 0 (benign)", id, ok)
	}
}

// TestCallClobberedChains: interprocedural kills and flows.  A value the
// callee unconditionally overwrites without reading dies at the call; a
// value the callee leaves alone flows through to its post-call use; a
// value the callee reads has its first use *at* the call (SlotCall).
func TestCallClobberedChains(t *testing.T) {
	im := buildWith(t, func(m *asm.Module) {
		g := m.Func("clobber") // writes r3, never reads it
		g.Prologue(0)
		g.Movi(isa.R3, 7)
		g.Epilogue()
		u := m.Func("consume") // reads r2 on entry
		u.Prologue(0)
		u.Add(isa.R0, isa.R2, isa.R2)
		u.Epilogue()
		f := m.Func("caller")
		f.Prologue(0)
		f.Movi(isa.R2, 3) // read by consume, via clobber's call boundary
		f.Movi(isa.R3, 1) // dead: clobber must-defines r3 before any use
		f.Movi(isa.R4, 2) // flows through both calls to the add below
		f.Call("clobber")
		f.Call("consume")
		f.Add(isa.R0, isa.R3, isa.R4)
		f.Movi(isa.R0, 0)
		f.Epilogue()
	})
	prog, _, flow := dataflowFor(t, im)
	f := funcCFG(t, prog, "caller")
	callClobber := addrOfOp(t, f, isa.OpCall, 0)
	callConsume := addrOfOp(t, f, isa.OpCall, 1)

	// r3 at the first call: clobber's mustDef kills it, mayUse excludes
	// it, so the pre-call value provably never reaches the post-call add.
	if refs, ok := flow.FirstUses(callClobber, 3); !ok || len(refs) != 0 {
		t.Errorf("FirstUses(call clobber, r3) = %v, %v; want empty (call-clobbered)", refs, ok)
	}
	if id, ok := flow.ClassID(callClobber, 3); !ok || id != 0 {
		t.Errorf("ClassID(call clobber, r3) = %d, %v; want 0 (benign)", id, ok)
	}

	// r4 is untouched by both callees: its first use is the add after
	// the calls, through the Rb slot.
	addAddr := addrOfOp(t, f, isa.OpAdd, 0)
	refs, ok := flow.FirstUses(callClobber, 4)
	if !ok || len(refs) != 1 || refs[0].Addr != addAddr || refs[0].Slot != SlotRb {
		t.Errorf("FirstUses(call clobber, r4) = %v, %v; want [{add rb}]", refs, ok)
	}

	// r2 is read inside consume: its first use from before either call is
	// the consume call site itself, as a summarized SlotCall use (clobber
	// neither reads nor writes r2, so the value flows past it).
	refs, ok = flow.FirstUses(callClobber, 2)
	if !ok || len(refs) != 1 || refs[0].Addr != callConsume || refs[0].Slot != SlotCall {
		t.Errorf("FirstUses(call clobber, r2) = %v, %v; want [{call-consume call}]", refs, ok)
	}
}

// TestIndirectCallConservatism: an unresolved callr must be treated as a
// use of every register (and makes every function reachable), so no
// pre-call value is ever pruned across it.  Kept in its own image: the
// mere presence of a callr poisons return-liveness program-wide.
func TestIndirectCallConservatism(t *testing.T) {
	im := buildApp(t, func(m *asm.Module) {
		f := m.Func("main")
		f.Prologue(0)
		f.Movi(isa.R5, 9) // nothing reads r5 textually
		f.MoviSym(isa.R1, "helper", 0)
		f.Callr(isa.R1)
		f.Movi(isa.R0, 0)
		f.Epilogue()
		g := m.Func("helper")
		g.Prologue(0)
		g.Movi(isa.R0, 1)
		g.Epilogue()
	})
	prog, _, flow := dataflowFor(t, im)
	f := funcCFG(t, prog, "main")
	callr := addrOfOp(t, f, isa.OpCallr, 0)

	refs, ok := flow.FirstUses(callr, 5)
	if !ok || len(refs) != 1 || refs[0].Addr != callr || refs[0].Slot != SlotCall {
		t.Errorf("FirstUses(callr, r5) = %v, %v; want [{callr call}] (conservative)", refs, ok)
	}
	// The callr makes every function reachable — including ones nothing
	// names — so the equivalence pass partitions all of them.
	for _, fn := range prog.Funcs {
		if fn.Sym.Owner == image.OwnerUser && !fn.Reachable {
			t.Errorf("%s: not reachable despite an unresolved callr", fn.Sym.Name)
		}
	}
}

// TestX87TagWordDepth: fldst (push a copy of st(imm)) and fxch require
// imm+1 live x87 slots.  A well-formed sequence passes all analyses with
// liveness and dataflow in agreement; touching a slot below the current
// depth is flagged by the fpstack pass.
func TestX87TagWordDepth(t *testing.T) {
	im := buildWith(t, func(m *asm.Module) {
		f := m.Func("x87_ok")
		f.Prologue(8)
		f.Fldz()           // depth 1
		f.Fld1()           // depth 2
		f.Fldst(1)         // push copy of st(1): depth 3
		f.Fxch(1)          // swap st0/st1: depth unchanged
		f.Faddp()          // depth 2
		f.Faddp()          // depth 1
		f.Fstp(isa.FP, -8) // store+pop: depth 0
		f.Epilogue()
		g := m.Func("x87_bad")
		g.Fldz()   // depth 1
		g.Fldst(1) // st(1) does not exist: underflow
		g.Fstp(isa.FP, -8)
		g.Ret()
	})
	prog, live, all := analyzeImage(t, im)
	flow := ComputeDataflow(prog, live)
	all = append(all, flow.Findings...)
	if fs := findingsFor(all, "fpstack", "x87_bad"); len(fs) == 0 {
		t.Error("fldst below the live x87 depth not flagged by the fpstack pass")
	}
	for _, f := range all {
		if f.Func != "x87_bad" {
			t.Errorf("collateral finding: %s", f)
		}
	}
	// The legal x87 traffic must not perturb the GPR dataflow: the
	// frame base stays live (and classed) across the whole sequence.
	f := funcCFG(t, prog, "x87_ok")
	if id, ok := flow.ClassID(addrOfOp(t, f, isa.OpFxch, 0), isa.FP); !ok || id == 0 {
		t.Errorf("ClassID(fxch, fp) = %d, %v; want a nonzero class", id, ok)
	}
}

// TestStackSlotClaims: the dead-slot analysis claims exactly the stored-
// but-never-reloaded fp-relative bytes, and withdraws every claim when
// the frame pointer escapes or an access is runtime-indexed.
func TestStackSlotClaims(t *testing.T) {
	im := buildApp(t, func(m *asm.Module) {
		f := m.Func("main")
		f.Prologue(0)
		f.Call("dead_store")
		f.Call("fp_escape")
		f.Call("indexed")
		f.Movi(isa.R0, 0)
		f.Epilogue()

		g := m.Func("dead_store")
		g.Prologue(8)
		g.Movi(isa.R1, 42)
		g.St(isa.FP, -4, isa.R1) // live: reloaded below
		g.St(isa.FP, -8, isa.R1) // dead: never reloaded
		g.Ld(isa.R2, isa.FP, -4)
		g.Add(isa.R0, isa.R2, isa.R2)
		g.Epilogue()

		h := m.Func("fp_escape")
		h.Prologue(4)
		h.Movi(isa.R1, 1)
		h.St(isa.FP, -4, isa.R1)
		h.Movr(isa.R2, isa.FP) // the frame address escapes into r2
		h.Add(isa.R0, isa.R2, isa.R2)
		h.Epilogue()

		k := m.Func("indexed")
		k.Prologue(4)
		k.Movi(isa.R1, 0)
		k.St(isa.FP, -4, isa.R1)          // never reloaded directly...
		k.Ldx(isa.R2, isa.FP, isa.R1, -4) // ...but indexed: offsets unresolvable
		k.Add(isa.R0, isa.R2, isa.R2)
		k.Epilogue()
	})
	_, _, flow := dataflowFor(t, im)

	slots := make(map[string]StackSlotInfo)
	for _, s := range flow.StackSlots() {
		slots[s.Func] = s
	}
	ds := slots["dead_store"]
	if ds.WrittenBytes != 8 || ds.DeadBytes != 4 {
		t.Errorf("dead_store: written %d dead %d; want 8 written, 4 dead", ds.WrittenBytes, ds.DeadBytes)
	}
	for i, off := range []int32{-8, -7, -6, -5} {
		if i >= len(ds.DeadOffsets) || ds.DeadOffsets[i] != off {
			t.Errorf("dead_store: DeadOffsets = %v; want [-8 -7 -6 -5]", ds.DeadOffsets)
			break
		}
	}
	if fe := slots["fp_escape"]; !fe.FPEscapes || fe.DeadBytes != 0 {
		t.Errorf("fp_escape: FPEscapes=%v DeadBytes=%d; escape must withdraw all claims", fe.FPEscapes, fe.DeadBytes)
	}
	if ix := slots["indexed"]; !ix.Indexed || ix.DeadBytes != 0 {
		t.Errorf("indexed: Indexed=%v DeadBytes=%d; indexed access must withdraw all claims", ix.Indexed, ix.DeadBytes)
	}
}

// TestEquivalencePartition: the summary counts unreferenced user data/BSS
// symbols as statically benign bytes.
func TestEquivalencePartition(t *testing.T) {
	im := buildApp(t, func(m *asm.Module) {
		m.DataI32("used_word", 7)
		m.DataI32("unused_word", 9)
		m.BSS("unused_buf", 64)
		f := m.Func("main")
		f.Prologue(0)
		f.LdSym(isa.R1, "used_word", 0)
		f.Add(isa.R0, isa.R1, isa.R1)
		f.Movi(isa.R0, 0)
		f.Epilogue()
	})
	prog, live, flow := dataflowFor(t, im)
	_, abiStats := ABICheck(prog)
	eq := ComputeEquivalence(prog, live, flow, abiStats)
	if eq.Summary.DataBenignBytes != 4 || eq.Summary.BSSBenignBytes != 64 {
		t.Errorf("summary benign bytes data=%d bss=%d; want 4 and 64",
			eq.Summary.DataBenignBytes, eq.Summary.BSSBenignBytes)
	}
}
