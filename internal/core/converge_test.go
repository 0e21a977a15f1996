package core

import (
	"fmt"
	"slices"
	"testing"

	"mpifault/internal/abi"
	"mpifault/internal/apps"
	"mpifault/internal/asm"
	"mpifault/internal/cluster"
	"mpifault/internal/guest"
	"mpifault/internal/image"
	"mpifault/internal/isa"
	"mpifault/internal/mpi"
	"mpifault/internal/vm"
)

// TestReplayMatchesEverySnapshot pins the equality converge stops on, so
// that it cannot silently stop firing: a fault-free solo run of every rank,
// from t=0 and from every snapshot, must match each later snapshot at
// which the rank is live — machine, runtime and tape position.  State a
// snapshot does not carry, or carries but does not restore, and that the
// comparison reads, fails it.
func TestReplayMatchesEverySnapshot(t *testing.T) {
	for _, tc := range []struct {
		app          string
		ranks, scale int // 0: the application's default
	}{{app: "wavetoy"}, {app: "minimd"}, {app: "minicam"}, {app: "minicam", ranks: 16, scale: 16}} {
		t.Run(fmt.Sprintf("%s@%d", tc.app, tc.ranks), func(t *testing.T) {
			a, err := apps.Get(tc.app)
			if err != nil {
				t.Fatal(err)
			}
			build := a.Default
			if tc.ranks > 0 {
				build.Ranks, build.Scale = tc.ranks, int32(tc.scale)
			}
			im, err := a.Build(build)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Image: im, Ranks: build.Ranks, CheckpointInterval: DefaultCheckpointInterval}
			golden, err := testGolden(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			snaps := golden.Result.Snapshots
			if len(snaps) < 2 {
				t.Fatalf("%d snapshots", len(snaps))
			}
			checks := 0
			for r := 0; r < build.Ranks; r++ {
				for k0 := -1; k0 < len(snaps); k0++ {
					var restore *cluster.Snapshot
					if k0 >= 0 {
						if restore = snaps[k0]; !restore.RankLive(r) {
							break
						}
					}
					var later, matched []int
					for k := k0 + 1; k < len(snaps); k++ {
						if snaps[k].RankLive(r) {
							later = append(later, k)
						}
					}
					if len(later) == 0 {
						continue
					}
					// Each check arms the next; the last halts the run.
					var arm func(m *vm.Machine, p *mpi.Proc, i int)
					arm = func(m *vm.Machine, p *mpi.Proc, i int) {
						rs := &snaps[later[i]].Ranks[r]
						m.TriggerAt = rs.VM.Instrs()
						m.TriggerFn = func(m *vm.Machine) *vm.Trap {
							if m.Matches(rs.VM) && p.Matches(rs.MPI, rs.TapePos) {
								matched = append(matched, later[i])
							}
							if i+1 == len(later) {
								return &vm.Trap{Kind: vm.TrapKilled, Msg: "checked"}
							}
							arm(m, p, i+1)
							return nil
						}
					}
					job := cluster.Job{Image: im, Size: build.Ranks, Budget: golden.Instrs[r] + 1, Restore: restore,
						Setup: func(_ int, m *vm.Machine, p *mpi.Proc) { arm(m, p, 0) }}
					cluster.RunSolo(job, r, golden.tapes[r])
					if !slices.Equal(matched, later) {
						t.Errorf("rank %d from snapshot %d: matched snapshots %v of %v", r, k0, matched, later)
					}
					checks += len(later)
				}
			}
			t.Logf("%d snapshots, %d checks", len(snaps), checks)
		})
	}
}

// convergeGuest is a two-rank program whose main loop stores its counter to
// x 2000 times and never touches y, stored once before it; then rank 0
// sends x to rank 1 and both print it.
func convergeGuest(t *testing.T) *image.Image {
	t.Helper()
	b := asm.NewBuilder()
	guest.AddLibc(b)
	guest.AddLibMPI(b)
	m := b.Module("app", image.OwnerUser)
	for _, v := range []struct {
		name string
		size uint32
	}{{"x", 4}, {"y", 4}, {"status", 12}} {
		m.BSS(v.name, v.size)
	}
	f := m.Func("main")
	f.Prologue(0)
	f.CallArgs("MPI_Init")
	f.Movi(isa.R1, 0x41424344)
	f.StSym("y", 0, isa.R1)
	f.Movi(isa.R2, 0)
	loop := f.NewLabel()
	f.Label(loop)
	f.StSym("x", 0, isa.R2)
	f.Addi(isa.R2, isa.R2, 1)
	f.Cmpi(isa.R2, 2000)
	f.Blt(loop)
	f.CallArgs("MPI_Comm_rank", asm.Imm(abi.CommWorld))
	recv, sent := f.NewLabel(), f.NewLabel()
	f.Cmpi(isa.R0, 0)
	f.Bne(recv)
	f.CallArgs("MPI_Send", asm.Sym("x"), asm.Imm(1), asm.Imm(abi.DTInt32),
		asm.Imm(1), asm.Imm(5), asm.Imm(abi.CommWorld))
	f.Jmp(sent)
	f.Label(recv)
	f.CallArgs("MPI_Recv", asm.Sym("x"), asm.Imm(1), asm.Imm(abi.DTInt32),
		asm.Imm(0), asm.Imm(5), asm.Imm(abi.CommWorld), asm.Sym("status"))
	f.Label(sent)
	f.CallArgs("print", asm.Imm(abi.FdStdout), asm.Sym("x"), asm.Imm(4))
	f.CallArgs("MPI_Finalize")
	f.Movi(isa.R0, 0)
	f.Epilogue()
	im, err := b.Link(asm.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// TestConvergedDirected holds converge against the run it cuts short, on
// rank 0 a few instructions into convergeGuest's loop: a change to what
// the loop overwrites, or to what no instruction reads, must stop the run
// at the next snapshot, where the full run goes on to the golden run's end;
// a flip left in place must not.
func TestConvergedDirected(t *testing.T) {
	im := convergeGuest(t)
	cfg := Config{Image: im, Ranks: 2, CheckpointInterval: 1000}
	golden, err := testGolden(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := testArm(&cfg, golden)
	if len(c.snaps) < 4 {
		t.Fatalf("%d snapshots", len(c.snaps))
	}
	const rank = 0
	at := c.snaps[1].RankInstrs(rank) + 5
	next := c.snaps[2].RankInstrs(rank)
	sym := func(name string) uint32 {
		s, ok := im.Lookup(name)
		if !ok {
			t.Fatalf("no symbol %s", name)
		}
		return s.Addr
	}
	run := func(change func(*vm.Machine), halt bool) (earlyEnd, cluster.SoloResult) {
		var end earlyEnd
		job := cluster.Job{Image: im, Size: 2, Budget: golden.Instrs[rank] + 1, Restore: c.snaps[1],
			Setup: func(_ int, m *vm.Machine, p *mpi.Proc) {
				m.TriggerAt = at
				m.TriggerFn = func(m *vm.Machine) *vm.Trap {
					change(m)
					if halt {
						end.injected = m.Instrs
						c.converge(m, p, rank, &end)
					}
					return nil
				}
			}}
		return end, cluster.RunSolo(job, rank, golden.tapes[rank])
	}
	for _, tc := range []struct {
		name      string
		change    func(*vm.Machine)
		converges bool
	}{
		{"flip the loop overwrites", func(m *vm.Machine) { flipByte(m, sym("x"), 3) }, true},
		{"flip left in place", func(m *vm.Machine) { flipByte(m, sym("y"), 3) }, false},
		{"MinSP", func(m *vm.Machine) { m.MinSP -= 64 }, true},
		{"heap peaks", func(m *vm.Machine) { m.Heap.PeakUser += 8; m.Heap.PeakMPI += 8 }, true},
		{"dirty text slot, equal bytes", func(m *vm.Machine) {
			b, _ := m.RawRead(sym("main"), isa.InstrBytes)
			m.RawWrite(sym("main"), b)
		}, true},
	} {
		end, early := run(tc.change, true)
		_, full := run(tc.change, false)
		ends := full.Trap != nil && full.Trap.Kind == vm.TrapExit && full.Instrs == golden.Instrs[rank] && full.Pos == len(golden.tapes[rank])
		switch {
		case !ends:
			t.Errorf("%s: the full run ends %+v %v, not as the golden run", tc.name, full, full.Trap)
		case end.converged != tc.converges:
			t.Errorf("%s: converged %v, want %v (stopped at %d)", tc.name, end.converged, tc.converges, early.Instrs)
		case tc.converges && early.Instrs != next:
			t.Errorf("%s: converged at %d, want the next snapshot's clock %d", tc.name, early.Instrs, next)
		case !tc.converges && (early.Instrs != full.Instrs || early.Trap.Kind != vm.TrapExit):
			t.Errorf("%s: stopped at %d %v, want the run to its exit", tc.name, early.Instrs, early.Trap)
		}
	}

	// A message fault is compared from its pull on, never before: restored
	// snapshots before rank 1 pulls x, with the first byte of x flipped in
	// the packet, the rank prints what the golden run did not and departs —
	// at no snapshot in between, where it is still the golden rank, may it
	// converge.
	mi := MessageInjector{Sender: 0, Offset: mpi.HeaderBytes, Bit: 3}
	mi.at = golden.tapes[1].PullClock(mi.Sender, mi.Offset)
	if mi.at <= c.snaps[2].RankInstrs(1) {
		t.Fatalf("rank 1 pulls x at %d, before snapshot 2", mi.at)
	}
	end := earlyEnd{injected: mi.at}
	job := cluster.Job{Image: im, Size: 2, Budget: golden.Instrs[1] + 1, Restore: c.snaps[1],
		Setup: func(_ int, m *vm.Machine, p *mpi.Proc) {
			p.RecvHook = mi.Hook
			c.converge(m, p, 1, &end)
		}}
	if res := cluster.RunSolo(job, 1, golden.tapes[1]); end.converged || res.Trap != nil || !mi.injected {
		t.Errorf("message fault: converged %v at %d, %v, flipped %v; want a departure", end.converged, res.Instrs, res.Trap, mi.injected)
	}
}
