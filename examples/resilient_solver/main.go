// Resilient solver: §8.2 of the paper notes that "iterative algorithms
// for solving systems of linear equations use successive approximations
// ... A small error or lost data only slows convergence rather than
// leading to wrong results" (naturally fault tolerant algorithms).
//
// This example builds a distributed Jacobi solver for a diagonally
// dominant tridiagonal system and subjects it to the same heap fault
// injections that silently corrupt wavetoy's output.  Because the solver
// iterates *to a tolerance* (rather than for a fixed step count), a
// corrupted iterate is simply pulled back to the fixed point: most heap
// faults end in the Correct class, unlike wavetoy's, where the same
// faults produce Incorrect output.
//
//	go run ./examples/resilient_solver
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"mpifault/internal/abi"
	"mpifault/internal/apps"
	"mpifault/internal/asm"
	"mpifault/internal/classify"
	"mpifault/internal/cluster"
	"mpifault/internal/core"
	"mpifault/internal/guest"
	"mpifault/internal/image"
	"mpifault/internal/isa"
	"mpifault/internal/mpi"
	"mpifault/internal/rng"
	"mpifault/internal/vm"
)

const (
	nPerRank = 16
	maxIters = 4000
	ranks    = 8
)

// buildJacobi assembles the solver guest program: solve A x = b with
// A = tridiag(-1, 4, -1) and b = A·1, so the solution is exactly ones.
// Each iteration exchanges one halo value per side with MPI_Sendrecv and
// allreduces the squared update norm; the loop exits on tolerance.
func buildJacobi() (*image.Image, error) {
	b := asm.NewBuilder()
	guest.AddLibc(b)
	guest.AddLibMPI(b)
	m := b.Module("jacobi", image.OwnerUser)

	m.DataString("s_file", "jacobi.out")
	m.DataString("s_fail", "jacobi: did not converge\n")
	m.DataString("s_done", "jacobi: converged\n")
	m.DataF64("c_tol", 1e-9)
	m.BSS("g_rank", 4)
	m.BSS("g_size", 4)
	m.BSS("g_x", 4)  // heap: n+2 f64 (ghosts at ends)
	m.BSS("g_xn", 4) // heap: n+2 f64 next iterate
	m.BSS("g_b", 4)  // heap: n f64 right-hand side
	m.BSS("g_iters", 4)
	m.BSS("g_res", 8)  // local squared-update norm
	m.BSS("g_rtot", 8) // reduced norm
	m.BSS("g_sb", 8)   // sendrecv staging
	m.BSS("g_rb", 8)

	f := m.Func("main")
	f.Prologue(0)
	f.CallArgs("MPI_Init")
	f.CallArgs("MPI_Comm_rank", asm.Imm(abi.CommWorld))
	f.StSym("g_rank", 0, isa.R0)
	f.CallArgs("MPI_Comm_size", asm.Imm(abi.CommWorld))
	f.StSym("g_size", 0, isa.R0)

	alloc := func(sym string, bytes int32) {
		f.CallArgs("malloc", asm.Imm(bytes))
		f.StSym(sym, 0, isa.R0)
	}
	alloc("g_x", (nPerRank+2)*8)
	alloc("g_xn", (nPerRank+2)*8)
	alloc("g_b", nPerRank*8)

	// Init: x = 0 everywhere; b_i = 2 except 3 at the global edges.
	f.LdSym(isa.R1, "g_x", 0)
	f.LdSym(isa.R2, "g_xn", 0)
	f.LdSym(isa.R3, "g_b", 0)
	f.Movi(isa.R4, 0)
	il, id := f.NewLabel(), f.NewLabel()
	f.Label(il)
	f.Cmpi(isa.R4, (nPerRank+2)*8)
	f.Bge(id)
	f.Fldz()
	f.Fstpx(isa.R1, isa.R4, 0)
	f.Fldz()
	f.Fstpx(isa.R2, isa.R4, 0)
	f.Addi(isa.R4, isa.R4, 8)
	f.Jmp(il)
	f.Label(id)
	f.Movi(isa.R4, 0)
	bl, bd := f.NewLabel(), f.NewLabel()
	f.Label(bl)
	f.Cmpi(isa.R4, nPerRank*8)
	f.Bge(bd)
	f.FldConst(2.0)
	f.Fstpx(isa.R3, isa.R4, 0)
	f.Addi(isa.R4, isa.R4, 8)
	f.Jmp(bl)
	f.Label(bd)
	// Global edge adjustments: rank 0's first entry and the last rank's
	// last entry get 3 (the missing -1 neighbour contribution of b=A*1).
	f.LdSym(isa.R0, "g_rank", 0)
	f.Cmpi(isa.R0, 0)
	notFirst := f.NewLabel()
	f.Bne(notFirst)
	f.FldConst(3.0)
	f.Fstp(isa.R3, 0)
	f.Label(notFirst)
	f.LdSym(isa.R0, "g_rank", 0)
	f.LdSym(isa.R1, "g_size", 0)
	f.Addi(isa.R1, isa.R1, -1)
	f.Cmp(isa.R0, isa.R1)
	notLast := f.NewLabel()
	f.Bne(notLast)
	f.FldConst(3.0)
	f.Fstp(isa.R3, (nPerRank-1)*8)
	f.Label(notLast)

	// Iteration loop.
	f.Movi(isa.R4, 0)
	f.StSym("g_iters", 0, isa.R4)
	loop, converged, failed := f.NewLabel(), f.NewLabel(), f.NewLabel()
	f.Label(loop)
	f.LdSym(isa.R4, "g_iters", 0)
	f.Cmpi(isa.R4, maxIters)
	f.Bge(failed)

	// Halo exchange via Sendrecv around a ring: every rank sends and
	// receives, so the pairing is always complete; the physical-edge
	// ghosts are overwritten with the Dirichlet zeros right afterward.
	exchange := func(sendOff, recvGhostOff int32, dir int32) {
		// dest = (rank+dir) mod size, source = (rank-dir) mod size
		f.LdSym(isa.R0, "g_rank", 0)
		f.LdSym(isa.R1, "g_size", 0)
		f.Addi(isa.R2, isa.R0, dir)
		f.Add(isa.R2, isa.R2, isa.R1)
		f.Rems(isa.R2, isa.R2, isa.R1)
		f.Addi(isa.R3, isa.R0, -dir)
		f.Add(isa.R3, isa.R3, isa.R1)
		f.Rems(isa.R3, isa.R3, isa.R1)
		// stage x[sendOff] into g_sb
		f.LdSym(isa.R5, "g_x", 0)
		f.Fldx(isa.R5, -1, sendOff)
		f.FstpSym("g_sb", 0)
		f.CallArgs("MPI_Sendrecv",
			asm.Sym("g_sb"), asm.Imm(1), asm.Imm(abi.DTF64), asm.Reg(isa.R2), asm.Imm(11),
			asm.Sym("g_rb"), asm.Imm(1), asm.Reg(isa.R3), asm.Imm(11),
			asm.Imm(abi.CommWorld), asm.Imm(0))
		// ghost <- received value
		f.LdSym(isa.R5, "g_x", 0)
		f.FldSym("g_rb", 0)
		f.Fstp(isa.R5, recvGhostOff)
	}
	// Send my last value rightward; receive into my low ghost.
	exchange((nPerRank)*8, 0, 1)
	// Send my first value leftward; receive into my high ghost.
	exchange(1*8, (nPerRank+1)*8, -1)

	// Edge ranks: physical Dirichlet ghosts are zero.
	f.LdSym(isa.R0, "g_rank", 0)
	f.Cmpi(isa.R0, 0)
	gz1 := f.NewLabel()
	f.Bne(gz1)
	f.LdSym(isa.R5, "g_x", 0)
	f.Fldz()
	f.Fstp(isa.R5, 0)
	f.Label(gz1)
	f.LdSym(isa.R0, "g_rank", 0)
	f.LdSym(isa.R1, "g_size", 0)
	f.Addi(isa.R1, isa.R1, -1)
	f.Cmp(isa.R0, isa.R1)
	gz2 := f.NewLabel()
	f.Bne(gz2)
	f.LdSym(isa.R5, "g_x", 0)
	f.Fldz()
	f.Fstp(isa.R5, (nPerRank+1)*8)
	f.Label(gz2)

	// Jacobi sweep: xn_i = (b_i + x_{i-1} + x_{i+1})/4, accumulate the
	// squared update into g_res.
	f.Fldz()
	f.FstpSym("g_res", 0)
	f.LdSym(isa.R1, "g_x", 0)
	f.LdSym(isa.R2, "g_xn", 0)
	f.LdSym(isa.R3, "g_b", 0)
	f.Movi(isa.R4, 8)
	sl, sd := f.NewLabel(), f.NewLabel()
	f.Label(sl)
	f.Cmpi(isa.R4, (nPerRank+1)*8)
	f.Bge(sd)
	f.Fldx(isa.R1, isa.R4, -8) // [xm]
	f.Fldx(isa.R1, isa.R4, 8)  // [xp, xm]
	f.Faddp()
	f.Fldx(isa.R3, isa.R4, -8) // b index = i-1 (b has no ghosts)
	f.Faddp()
	f.FldConst(0.25)
	f.Fmulp() // [xn]
	f.Fldst(0)
	f.Fldx(isa.R1, isa.R4, 0) // [x, xn, xn]
	f.Fsubp()                 // [d, xn]
	f.Fldst(0)
	f.Fmulp() // [d^2, xn]
	f.FldSym("g_res", 0)
	f.Faddp()
	f.FstpSym("g_res", 0)
	f.Fstpx(isa.R2, isa.R4, 0)
	f.Addi(isa.R4, isa.R4, 8)
	f.Jmp(sl)
	f.Label(sd)

	// Swap x and xn.
	f.LdSym(isa.R1, "g_x", 0)
	f.LdSym(isa.R2, "g_xn", 0)
	f.StSym("g_x", 0, isa.R2)
	f.StSym("g_xn", 0, isa.R1)

	// Global residual; converged when below tolerance.
	f.CallArgs("MPI_Allreduce", asm.Sym("g_res"), asm.Sym("g_rtot"),
		asm.Imm(1), asm.Imm(abi.DTF64), asm.Imm(abi.OpSum), asm.Imm(abi.CommWorld))
	f.LdSym(isa.R4, "g_iters", 0)
	f.Addi(isa.R4, isa.R4, 1)
	f.StSym("g_iters", 0, isa.R4)
	f.FldSym("g_rtot", 0)
	f.FldConst(1e-9)
	f.Fcomp() // tol vs res: LT set when tol < res (keep iterating)
	f.Blt(loop)
	f.Jmp(converged)

	f.Label(failed)
	// Not converged within maxIters: report failure (differs from the
	// golden output, so the harness classifies the run Incorrect).
	f.LdSym(isa.R0, "g_rank", 0)
	f.Cmpi(isa.R0, 0)
	skipFail := f.NewLabel()
	f.Bne(skipFail)
	f.CallArgs("print", asm.Imm(abi.FdStdout), asm.Sym("s_fail"), asm.Imm(25))
	f.Label(skipFail)
	fin := f.NewLabel()
	f.Jmp(fin)

	f.Label(converged)
	// Rank 0 writes the solution at modest precision: the converged
	// iterate is tolerance-accurate regardless of how many iterations a
	// fault cost, so the file matches the golden run.
	f.LdSym(isa.R0, "g_rank", 0)
	f.Cmpi(isa.R0, 0)
	skipOut := f.NewLabel()
	f.Bne(skipOut)
	f.CallArgs("print", asm.Imm(abi.FdStdout), asm.Sym("s_done"), asm.Imm(18))
	f.CallArgs("open", asm.Sym("s_file"), asm.Imm(10))
	f.Push(isa.R0)
	f.LdSym(isa.R1, "g_x", 0)
	f.Addi(isa.R1, isa.R1, 8)
	f.Pop(isa.R4)
	f.CallArgs("print_f64arr", asm.Reg(isa.R4), asm.Reg(isa.R1),
		asm.Imm(nPerRank), asm.Imm(3))
	f.Label(skipOut)
	f.Label(fin)

	f.CallArgs("MPI_Finalize")
	f.Movi(isa.R0, 0)
	f.Epilogue()

	return b.Link(asm.LinkConfig{})
}

// perturbSolution runs `trials` experiments against the image: at a
// random mid-run instant on a random rank, one float64 of the program's
// *solution/field array* (the first heap chunks it allocates) is
// overwritten with a large value — a severe single-word upset.  Returns
// how many runs still ended in the Correct class.
func perturbSolution(name string, im *image.Image, nRanks, solutionChunks, trials int) (correct, total int) {
	golden, err := core.RunGolden(im, nRanks, mpi.Config{}, 60*time.Second)
	if err != nil {
		log.Fatalf("%s golden: %v", name, err)
	}
	base := rng.New(99)
	for i := 0; i < trials; i++ {
		r := base.Derive(uint64(i))
		rank := r.Intn(nRanks)
		trigger := golden.Instrs[rank]/10 + r.Uint64n(golden.Instrs[rank]/2)
		res := cluster.Run(cluster.Job{
			Image: im, Size: nRanks,
			// Reconvergence after a large perturbation can take 100x the
			// fault-free iteration count; leave the budget room so slowed
			// convergence is not misread as a hang.
			Budget:    golden.MaxInstrs() * 400,
			WallLimit: 30 * time.Second,
			Setup: func(rk int, m *vm.Machine, p *mpi.Proc) {
				if rk != rank {
					return
				}
				m.TriggerAt = trigger
				m.TriggerFn = func(m *vm.Machine) *vm.Trap {
					chunks := m.Heap.Chunks()
					if len(chunks) < solutionChunks {
						return nil
					}
					c := chunks[r.Intn(solutionChunks)]
					off := uint32(r.Intn(int(c.Size/8))) * 8
					var buf [8]byte
					bits := math.Float64bits(1e6)
					for j := range buf {
						buf[j] = byte(bits >> (8 * uint(j)))
					}
					m.RawWrite(c.Payload+off, buf[:])
					return nil
				}
			},
		})
		if classify.Classify(res, golden.Output) == classify.Correct {
			correct++
		}
		total++
	}
	return correct, total
}

func main() {
	log.SetFlags(0)
	const trials = 60

	jacobi, err := buildJacobi()
	if err != nil {
		log.Fatal(err)
	}
	// Jacobi's first two heap chunks are the x and xn iterates.
	jc, jn := perturbSolution("jacobi", jacobi, ranks, 2, trials)

	wa, err := apps.Get("wavetoy")
	if err != nil {
		log.Fatal(err)
	}
	wim, err := wa.Build(wa.Default)
	if err != nil {
		log.Fatal(err)
	}
	// Wavetoy's first three chunks are u_prev, u_curr, u_next.
	wc, wn := perturbSolution("wavetoy", wim, wa.Default.Ranks, 3, trials)

	fmt.Println("naturally fault tolerant algorithms (§8.2):")
	fmt.Println("severe upset (a solution-array float64 overwritten with 1e6):")
	fmt.Printf("  jacobi  (iterates to tolerance): %2d/%2d runs still bit-exact correct\n", jc, jn)
	fmt.Printf("  wavetoy (fixed step count):      %2d/%2d runs still bit-exact correct\n", wc, wn)
	fmt.Println("\n(the tolerance-driven Jacobi solver absorbs iterate corruption —")
	fmt.Println(" a perturbed run just takes more sweeps to the same fixed point —")
	fmt.Println(" while the explicit time stepper carries the same upset straight")
	fmt.Println(" into its output)")
}
