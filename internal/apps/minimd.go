package apps

import (
	"mpifault/internal/abi"
	"mpifault/internal/asm"
	"mpifault/internal/guest"
	"mpifault/internal/image"
	"mpifault/internal/isa"
)

// BuildMiniMD links the NAMD analogue: particle dynamics where every step
// allgathers each rank's position block and integrates spring forces
// against a window of global neighbours.
//
// Fidelity to the paper's NAMD characterization (§4.2.2, §6.2):
//
//   - traffic is dominated by user data (position blocks, ~92 %);
//   - every outgoing position block carries an application-level checksum
//     that receivers verify — NAMD's built-in message consistency checks,
//     which detect 46 % of manifested message faults at ~3 % runtime cost;
//   - the reduced total energy is NaN-checked each step (NAMD detects 47 %
//     of its manifested faults, mostly via NaN tests);
//   - particle positions carry sanity bound checks;
//   - the comparison baseline is the rank-0 console output (step/energy
//     lines), exactly as in the paper.
func BuildMiniMD(cfg Config) (*image.Image, error) {
	n := cfg.Scale // particles per rank
	// Each transmitted block is n positions + an envelope slot + a
	// checksum slot.  The envelope models the Charm++ message envelope
	// that NAMD's payloads carry ("Charm++ is considered a part of the
	// user application", §4.2.2): the receiver dereferences it, so
	// envelope corruption causes wild accesses — the crashes in Table
	// 3's message row.
	blk := n + 2
	const (
		window = 4    // neighbour window half-width
		kSpr   = 0.05 // spring constant
		dt     = 0.05 // time step
	)

	b := asm.NewBuilder()
	guest.AddLibc(b)
	guest.AddLibMPI(b)
	m := b.Module("minimd", image.OwnerUser)

	m.DataString("s_step", "STEP ")
	m.DataString("s_energy", " ENERGY ")
	m.DataString("s_nl", "\n")
	m.DataString("s_done", "minimd: run complete\n")
	m.DataString("s_cksum", "minimd: message checksum mismatch, aborting\n")
	m.DataString("s_nan", "minimd: NaN energy detected, aborting\n")
	m.DataString("s_bound", "minimd: particle position out of bounds, aborting\n")
	m.BSS("g_rank", 4)
	m.BSS("g_size", 4)
	m.BSS("g_gbase", 4) // rank*n: global index of local particle 0
	m.BSS("g_nglob", 4) // n*size
	m.BSS("g_step", 4)
	m.BSS("g_q", 4)    // heap: n f64 positions
	m.BSS("g_v", 4)    // heap: n f64 velocities
	m.BSS("g_sblk", 4) // heap: blk f64 outgoing block
	m.BSS("g_all", 4)  // heap: blk*size f64 allgathered blocks
	m.BSS("g_esum", 8) // local energy accumulator
	m.BSS("g_etot", 8) // reduced global energy
	m.BSS("g_cks", 8)  // checksum accumulator
	m.BSS("g_iobuf", 4)
	m.BSS("g_cfgsum", 8)

	// Cold regions (see addColdCode): NAMD's executed-text working set
	// is only 15 % at startup and 8 % in the compute phase, and its
	// data+BSS+heap load set drops from 60 % to 22 %.
	addColdCode(m, "md", 130, 8)
	addColdData(m, "md", 8<<10)
	params := make([]float64, 128)
	for i := range params {
		params[i] = 0.25 + float64(i)*0.0625
	}
	m.DataF64("d_params", params...)
	// Interaction weight table, indexed by pair distance with no bounds
	// check — the analogue of NAMD's cell/patch indexing, which turns a
	// corrupted position into a wild lookup (the message-fault crashes in
	// Table 3).  Fault-free distances stay well inside the table.
	wtab := make([]float64, 64)
	for i := range wtab {
		wtab[i] = 1.0 - float64(i)*0.002
	}
	m.DataF64("d_wtab", wtab...)

	buildMiniMDInit(m, n)
	buildMiniMDPack(m, n, cfg.Checksums)
	buildMiniMDVerify(m, n, cfg.Checksums)
	// Positions start at their global particle index, so the sanity bound
	// grows with the world: 1e3 up to ~800 particles, 1.25 × their count
	// beyond.
	bound := max(1e3, 1.25*float64(n)*float64(cfg.Ranks))
	buildMiniMDForces(m, n, window, kSpr, dt, bound, cfg.Checks)

	f := m.Func("main")
	f.Prologue(64)
	f.CallArgs("MPI_Init")
	// Register an error handler, as the paper's harness does for every
	// application (§5.1): argument-check failures then surface as the
	// "MPI Detected" manifestation instead of the default fatal abort.
	f.CallArgs("MPI_Errhandler_set", asm.Imm(abi.CommWorld), asm.Sym("md_cold_0"))
	f.CallArgs("MPI_Comm_rank", asm.Imm(abi.CommWorld))
	f.StSym("g_rank", 0, isa.R0)
	f.Muli(isa.R1, isa.R0, n)
	f.StSym("g_gbase", 0, isa.R1)
	f.CallArgs("MPI_Comm_size", asm.Imm(abi.CommWorld))
	f.StSym("g_size", 0, isa.R0)
	f.Muli(isa.R1, isa.R0, n)
	f.StSym("g_nglob", 0, isa.R1)

	alloc := func(sym string, bytes int32) {
		f.CallArgs("malloc", asm.Imm(bytes))
		f.StSym(sym, 0, isa.R0)
	}
	alloc("g_q", n*8)
	alloc("g_v", n*8)
	alloc("g_sblk", blk*8)
	// The allgather target is sized by the true world size.
	f.LdSym(isa.R1, "g_size", 0)
	f.Muli(isa.R1, isa.R1, blk*8)
	f.CallArgs("malloc", asm.Reg(isa.R1))
	f.StSym("g_all", 0, isa.R0)
	emitColdHeapAlloc(f, "g_iobuf", 16<<10, 64)

	f.CallArgs("minimd_init")

	// Time-step loop.
	f.Movi(isa.R4, 0)
	f.StSym("g_step", 0, isa.R4)
	loop, done := f.NewLabel(), f.NewLabel()
	f.Label(loop)
	f.LdSym(isa.R4, "g_step", 0)
	f.Cmpi(isa.R4, cfg.Steps)
	f.Bge(done)

	f.CallArgs("minimd_pack")
	f.LdSym(isa.R1, "g_sblk", 0)
	f.LdSym(isa.R2, "g_all", 0)
	f.CallArgs("MPI_Allgather", asm.Reg(isa.R1), asm.Imm(blk), asm.Imm(abi.DTF64),
		asm.Reg(isa.R2), asm.Imm(abi.CommWorld))
	f.CallArgs("minimd_verify")
	f.CallArgs("minimd_forces")

	// Reduce the kinetic energy and report from rank 0.
	f.CallArgs("MPI_Allreduce", asm.Sym("g_esum"), asm.Sym("g_etot"),
		asm.Imm(1), asm.Imm(abi.DTF64), asm.Imm(abi.OpSum), asm.Imm(abi.CommWorld))
	if cfg.Checks {
		f.CallArgs("fchecknan", asm.Sym("g_etot"), asm.Sym("s_nan"), asm.Imm(38))
	}
	f.LdSym(isa.R0, "g_rank", 0)
	f.Cmpi(isa.R0, 0)
	skipPrint := f.NewLabel()
	f.Bne(skipPrint)
	f.CallArgs("print", asm.Imm(abi.FdStdout), asm.Sym("s_step"), asm.Imm(5))
	f.LdSym(isa.R1, "g_step", 0)
	f.CallArgs("print_int", asm.Imm(abi.FdStdout), asm.Reg(isa.R1))
	f.CallArgs("print", asm.Imm(abi.FdStdout), asm.Sym("s_energy"), asm.Imm(8))
	f.CallArgs("print_f64", asm.Imm(abi.FdStdout), asm.Sym("g_etot"), asm.Imm(cfg.OutPrecision))
	f.CallArgs("print", asm.Imm(abi.FdStdout), asm.Sym("s_nl"), asm.Imm(1))
	f.Label(skipPrint)

	f.LdSym(isa.R4, "g_step", 0)
	f.Addi(isa.R4, isa.R4, 1)
	f.StSym("g_step", 0, isa.R4)
	f.Jmp(loop)
	f.Label(done)

	f.LdSym(isa.R0, "g_rank", 0)
	f.Cmpi(isa.R0, 0)
	skipDone := f.NewLabel()
	f.Bne(skipDone)
	f.CallArgs("print", asm.Imm(abi.FdStdout), asm.Sym("s_done"), asm.Imm(21))
	f.Label(skipDone)

	f.CallArgs("MPI_Finalize")
	f.Movi(isa.R0, 0)
	f.Epilogue()

	return b.Link(asm.LinkConfig{HeapSize: cfg.HeapSize, StackSize: cfg.StackSize})
}

// buildMiniMDInit seeds positions near their lattice sites with a small
// deterministic perturbation, and small velocities.
func buildMiniMDInit(m *asm.Module, n int32) {
	f := m.Func("minimd_init")
	f.Prologue(64)

	// Startup parameter-table pass: loads that exist only during
	// initialization (the Table 6 working-set drop at the phase shift).
	f.Fldz()
	f.Movi(isa.R4, 0)
	cfgLoop, cfgDone := f.NewLabel(), f.NewLabel()
	f.Label(cfgLoop)
	f.Cmpi(isa.R4, 128*8)
	f.Bge(cfgDone)
	f.MoviSym(isa.R5, "d_params", 0)
	f.Fldx(isa.R5, isa.R4, 0)
	f.Faddp()
	f.Addi(isa.R4, isa.R4, 8)
	f.Jmp(cfgLoop)
	f.Label(cfgDone)
	f.FstpSym("g_cfgsum", 0)

	f.LdSym(isa.R1, "g_q", 0)
	f.LdSym(isa.R2, "g_v", 0)
	f.LdSym(isa.R3, "g_gbase", 0)
	f.Movi(isa.R4, 0) // byte offset
	loop, done := f.NewLabel(), f.NewLabel()
	f.Label(loop)
	f.Cmpi(isa.R4, n*8)
	f.Bge(done)
	// gi = gbase + i
	f.Shri(isa.R0, isa.R4, 3)
	f.Add(isa.R0, isa.R0, isa.R3)
	// q = gi + 0.03 * ((gi*31) mod 17 - 8)
	f.Fild(isa.R0) // [gi]
	f.Muli(isa.R5, isa.R0, 31)
	f.Movi(isa.R0, 17)
	f.Rems(isa.R5, isa.R5, isa.R0)
	f.Addi(isa.R5, isa.R5, -8)
	f.Fild(isa.R5) // [p, gi]
	f.FldConst(0.03)
	f.Fmulp() // [0.03p, gi]
	f.Faddp() // [q]
	f.Fstpx(isa.R1, isa.R4, 0)
	// v = 0.02 * ((gi*13) mod 11 - 5)
	f.Shri(isa.R0, isa.R4, 3)
	f.Add(isa.R0, isa.R0, isa.R3)
	f.Muli(isa.R5, isa.R0, 13)
	f.Movi(isa.R0, 11)
	f.Rems(isa.R5, isa.R5, isa.R0)
	f.Addi(isa.R5, isa.R5, -5)
	f.Fild(isa.R5)
	f.FldConst(0.02)
	f.Fmulp()
	f.Fstpx(isa.R2, isa.R4, 0)
	f.Addi(isa.R4, isa.R4, 8)
	f.Jmp(loop)
	f.Label(done)
	f.Epilogue()
}

// buildMiniMDPack copies the local positions into the outgoing block and
// appends the running-sum checksum (or zero when checksums are disabled —
// the ablation of §7's overhead discussion keeps message sizes equal).
//
// Like NAMD's built-in consistency checks, the checksum is *partial*: it
// covers only the first half of the block.  NAMD detects 46 % of its
// manifested message faults (Table 3) precisely because its checks do not
// cover all transmitted data — "NAMD's checksum only tests user data, not
// headers", and only for some message classes.
func buildMiniMDPack(m *asm.Module, n int32, checksums bool) {
	covered := (n / 4) * 8 // byte extent protected by the (partial) checksum
	f := m.Func("minimd_pack")
	f.Prologue(64)
	f.Fldz()
	f.FstpSym("g_cks", 0)
	f.LdSym(isa.R1, "g_q", 0)
	f.LdSym(isa.R2, "g_sblk", 0)
	f.Movi(isa.R4, 0)
	loop, done := f.NewLabel(), f.NewLabel()
	f.Label(loop)
	f.Cmpi(isa.R4, n*8)
	f.Bge(done)
	f.Fldx(isa.R1, isa.R4, 0)
	if checksums {
		skipSum := f.NewLabel()
		f.Cmpi(isa.R4, covered)
		f.Bge(skipSum)
		f.Fldst(0) // [q, q]
		f.FldSym("g_cks", 0)
		f.Faddp() // [cks', q]
		f.FstpSym("g_cks", 0)
		f.Label(skipSum)
	}
	f.Fstpx(isa.R2, isa.R4, 0)
	f.Addi(isa.R4, isa.R4, 8)
	f.Jmp(loop)
	f.Label(done)
	// Envelope slot: the owning rank, dereferenced by every receiver.
	f.LdSym(isa.R0, "g_rank", 0)
	f.Fild(isa.R0)
	f.Fstp(isa.R2, n*8)
	// Checksum slot.
	f.FldSym("g_cks", 0)
	f.Fstp(isa.R2, (n+1)*8)
	f.Epilogue()
}

// buildMiniMDVerify processes every received block: it always
// dereferences the Charm++-style envelope (a corrupted envelope indexes
// wild memory and crashes, as in Table 3's message row), and, when
// checksums are enabled, recomputes the partial checksum and aborts on
// mismatch — NAMD's message consistency check.  The recomputation uses
// the identical summation order, so in a fault-free run the comparison is
// bit-exact; any corruption of a covered word (including one that
// produces NaN) fails the equality test.
func buildMiniMDVerify(m *asm.Module, n int32, checksums bool) {
	blk := n + 2
	covered := (n / 4) * 8
	f := m.Func("minimd_verify")
	f.Prologue(64)
	f.LdSym(isa.R3, "g_all", 0)
	f.Movi(isa.R2, 0) // peer rank r
	outer, outerDone := f.NewLabel(), f.NewLabel()
	f.Label(outer)
	f.LdSym(isa.R0, "g_size", 0)
	f.Cmp(isa.R2, isa.R0)
	f.Bge(outerDone)
	// R5 = base byte offset of block r.
	f.Muli(isa.R5, isa.R2, blk*8)

	// Envelope dispatch: interpret slot n as the owner rank and touch
	// that owner's block, as Charm++ does when it routes a message to
	// its chare.  No bounds check — a corrupted envelope reads wild.
	f.Movi(isa.R4, n*8)
	f.Add(isa.R0, isa.R5, isa.R4)
	f.Fldx(isa.R3, isa.R0, 0) // [env]
	f.Fist(isa.R0)            // owner rank (or garbage)
	f.Muli(isa.R0, isa.R0, blk*8)
	f.Fldx(isa.R3, isa.R0, 0) // the routed block's first word
	f.FstpSym("g_cfgsum", 0)

	if checksums {
		f.Fldz() // [s]
		f.Movi(isa.R4, 0)
		inner, innerDone := f.NewLabel(), f.NewLabel()
		f.Label(inner)
		f.Cmpi(isa.R4, covered)
		f.Bge(innerDone)
		f.Add(isa.R0, isa.R5, isa.R4)
		f.Fldx(isa.R3, isa.R0, 0) // [x, s]
		f.Faddp()                 // [s']
		f.Addi(isa.R4, isa.R4, 8)
		f.Jmp(inner)
		f.Label(innerDone)
		// Compare with the transmitted checksum (slot n+1 of the block).
		f.Movi(isa.R4, (n+1)*8)
		f.Add(isa.R0, isa.R5, isa.R4)
		f.Fldx(isa.R3, isa.R0, 0) // [cks, s]
		f.Fcomp()                 // flags from cks vs s; pops both
		ok := f.NewLabel()
		f.Beq(ok)
		f.CallArgs("app_abort", asm.Sym("s_cksum"), asm.Imm(44))
		f.Label(ok)
	}
	f.Addi(isa.R2, isa.R2, 1)
	f.Jmp(outer)
	f.Label(outerDone)
	f.Epilogue()
}

// buildMiniMDForces integrates spring forces against a window of global
// neighbours read from the allgathered blocks, updates velocities and
// positions, applies the optional bound check, and accumulates kinetic
// energy.
func buildMiniMDForces(m *asm.Module, n, window int32, kSpr, dt, bound float64, checks bool) {
	f := m.Func("minimd_forces")
	f.Prologue(64)
	f.Fldz()
	f.FstpSym("g_esum", 0)
	f.LdSym(isa.R1, "g_q", 0)
	f.LdSym(isa.R2, "g_gbase", 0)
	f.LdSym(isa.R3, "g_all", 0)
	f.Movi(isa.R4, 0) // byte offset of particle i
	loop, done := f.NewLabel(), f.NewLabel()
	f.Label(loop)
	f.Cmpi(isa.R4, n*8)
	f.Bge(done)

	f.Fldz() // [F]
	for d := -window; d <= window; d++ {
		if d == 0 {
			continue
		}
		skip := f.NewLabel()
		// gd = gbase + i + d, bounds-checked against the global count.
		f.Shri(isa.R0, isa.R4, 3)
		f.Add(isa.R0, isa.R0, isa.R2)
		f.Addi(isa.R0, isa.R0, d)
		f.Cmpi(isa.R0, 0)
		f.Blt(skip)
		f.LdSym(isa.R5, "g_nglob", 0)
		f.Cmp(isa.R0, isa.R5)
		f.Bge(skip)
		// Block element offset: gd + 2*(gd/n) skips each owning block's
		// envelope and checksum slots.
		f.Movi(isa.R5, n)
		f.Divs(isa.R5, isa.R0, isa.R5)
		f.Add(isa.R0, isa.R0, isa.R5)
		f.Add(isa.R0, isa.R0, isa.R5)
		f.Shli(isa.R0, isa.R0, 3)
		// contribution k * wtab[|dq|*64] * (dq - d), dq = qj - qi
		f.Fldx(isa.R3, isa.R0, 0) // [qj, F]
		f.Fldx(isa.R1, isa.R4, 0) // [qi, qj, F]
		f.Fsubp()                 // [dq, F]
		// Distance-indexed weight lookup (unchecked, as in NAMD's cell
		// indexing): a corrupted position yields a wild byte offset.
		f.Fldst(0)       // [dq, dq, F]
		f.Fabs()         // [|dq|, dq, F]
		f.FldConst(64.0) // [64, |dq|, dq, F]
		f.Fmulp()        // [|dq|*64, dq, F]
		f.Fist(isa.R5)   // R5 = byte offset; [dq, F]
		f.Andi(isa.R5, isa.R5, -8)
		f.MoviSym(isa.R0, "d_wtab", 0)
		f.FldConst(float64(d))    // [d, dq, F]
		f.Fsubp()                 // [dq-d, F]
		f.Fldx(isa.R0, isa.R5, 0) // [w, x, F]
		f.Fmulp()                 // [wx, F]
		f.FldConst(kSpr)          // [k, wx, F]
		f.Fmulp()                 // [kwx, F]
		f.Faddp()                 // [F']
		f.Label(skip)
	}

	// v' = v + dt*F ; q' = q + dt*v'
	f.FldConst(dt)
	f.Fmulp() // [dtF]
	f.LdSym(isa.R5, "g_v", 0)
	f.Fldx(isa.R5, isa.R4, 0) // [v, dtF]
	f.Faddp()                 // [v']
	f.Fldst(0)                // [v', v']
	f.Fstpx(isa.R5, isa.R4, 0)
	// energy E += v'^2 (before v' is consumed by the position update)
	f.Fldst(0)
	f.Fldst(0)
	f.Fmulp() // [v'^2, v']
	f.FldSym("g_esum", 0)
	f.Faddp() // [E', v']
	f.FstpSym("g_esum", 0)
	f.FldConst(dt)
	f.Fmulp()                 // [dt*v']
	f.Fldx(isa.R1, isa.R4, 0) // [q, dtv]
	f.Faddp()                 // [q']
	if checks {
		// Bound check: |q'| must stay under bound.
		f.Fldst(0)
		f.Fabs()          // [|q|, q']
		f.FldConst(bound) // [bound, |q|, q']
		f.Fcomp()         // flags from bound vs |q|; pops both -> [q']
		okb := f.NewLabel()
		f.Bge(okb) // bound >= |q| is fine
		f.CallArgs("app_abort", asm.Sym("s_bound"), asm.Imm(50))
		f.Label(okb)
	}
	f.Fstpx(isa.R1, isa.R4, 0)

	f.Addi(isa.R4, isa.R4, 8)
	f.Jmp(loop)
	f.Label(done)
	f.Epilogue()
}
