package core

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"mpifault/internal/abi"
	"mpifault/internal/asm"
	"mpifault/internal/cluster"
	"mpifault/internal/guest"
	"mpifault/internal/image"
	"mpifault/internal/isa"
	"mpifault/internal/mpi"
	"mpifault/internal/rng"
	"mpifault/internal/vm"
)

// deadGuest is a two-rank program in two phases.  phase1 runs once: it
// fills the send and output buffers, fills a heap chunk p and leaves on the
// FP stack, by physical register, Inf in 7 (Special), 0 in 6 (Zero) and 1
// in 5 (Valid); 4 stays Empty.  phase2 is what follows the injection: rank
// 0 sends sendbuf to rank 1, each prints outbuf and writes the three FP
// values out through fpbuf, then frees p and allocates two 8-byte chunks,
// the second of whose header lands at p+8, and frees them.  After phase2
// begins the guest reads sendbuf, outbuf, p and its chunks only through the
// host: MPI_Send, write(), and the allocator.
func deadGuest(t *testing.T) *image.Image {
	t.Helper()
	b := asm.NewBuilder()
	guest.AddLibc(b)
	guest.AddLibMPI(b)
	m := b.Module("app", image.OwnerUser)
	for _, v := range []struct {
		name string
		size uint32
	}{{"sendbuf", 8}, {"recvbuf", 8}, {"outbuf", 8}, {"status", 12}, {"fpbuf", 24}, {"p", 4}, {"q1", 4}, {"q2", 4}} {
		m.BSS(v.name, v.size)
	}

	f := m.Func("phase1")
	f.Prologue(0)
	f.Movi(isa.R1, 0x41424344)
	for _, sym := range []string{"sendbuf", "outbuf"} {
		f.StSym(sym, 0, isa.R1)
		f.StSym(sym, 4, isa.R1)
	}
	f.CallArgs("malloc", asm.Imm(64))
	f.StSym("p", 0, isa.R0)
	f.Movi(isa.R2, 7)
	f.St(isa.R0, 0, isa.R2)
	f.St(isa.R0, 8, isa.R2)
	f.Fld1()
	f.Fldz()
	f.Fdivp() // Inf
	f.Fldz()
	f.Fld1()
	f.Epilogue()

	f = m.Func("phase2")
	f.Prologue(0)
	f.CallArgs("MPI_Comm_rank", asm.Imm(abi.CommWorld))
	recv, sent := f.NewLabel(), f.NewLabel()
	f.Cmpi(isa.R0, 0)
	f.Bne(recv)
	f.CallArgs("MPI_Send", asm.Sym("sendbuf"), asm.Imm(2), asm.Imm(abi.DTInt32),
		asm.Imm(1), asm.Imm(5), asm.Imm(abi.CommWorld))
	f.Jmp(sent)
	f.Label(recv)
	f.CallArgs("MPI_Recv", asm.Sym("recvbuf"), asm.Imm(2), asm.Imm(abi.DTInt32),
		asm.Imm(0), asm.Imm(5), asm.Imm(abi.CommWorld), asm.Sym("status"))
	f.Label(sent)
	f.CallArgs("print", asm.Imm(abi.FdStdout), asm.Sym("outbuf"), asm.Imm(8))
	for off := int32(0); off < 24; off += 8 {
		f.FstpSym("fpbuf", off)
	}
	f.CallArgs("write_bin", asm.Imm(abi.FdStdout), asm.Sym("fpbuf"), asm.Imm(24))
	f.LdSym(isa.R1, "p", 0)
	f.CallArgs("free", asm.Reg(isa.R1))
	for _, q := range []string{"q1", "q2"} {
		f.CallArgs("malloc", asm.Imm(8))
		f.StSym(q, 0, isa.R0)
	}
	for _, q := range []string{"q2", "q1"} {
		f.LdSym(isa.R1, q, 0)
		f.CallArgs("free", asm.Reg(isa.R1))
	}
	f.Epilogue()

	f = m.Func("main")
	f.Prologue(0)
	f.CallArgs("MPI_Init")
	f.Call("phase1")
	f.Call("phase2")
	f.CallArgs("MPI_Finalize")
	f.Movi(isa.R0, 0)
	f.Epilogue()
	im, err := b.Link(asm.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// firstFetch counts instructions up to the first fetch from pc.
type firstFetch struct {
	pc    uint32
	n, at uint64
}

func (f *firstFetch) Exec(pc uint32) {
	f.n++
	if pc == f.pc && f.at == 0 {
		f.at = f.n
	}
}
func (f *firstFetch) Load(uint32, int)  {}
func (f *firstFetch) Store(uint32, int) {}

// soloBothWays runs rank of c's golden run alone from t=0 with flip applied
// just before instruction at, twice: as a campaign's solo run does, which
// stops where deadAt finds the flip unread, and to the end.  It returns the
// rule found and the two results.
func soloBothWays(c *campaignCtx, rank int, at uint64, flip func(*vm.Machine) Site) (deadRule, cluster.SoloResult, cluster.SoloResult) {
	arm := func(halt bool, end *earlyEnd) cluster.Job {
		return cluster.Job{Image: c.cfg.Image, Size: c.cfg.Ranks, Budget: c.golden.Instrs[rank] + 1,
			Setup: func(_ int, m *vm.Machine, _ *mpi.Proc) {
				m.TriggerAt = at
				m.TriggerFn = func(m *vm.Machine) *vm.Trap {
					if end.dead = c.deadAt(m, rank, flip(m)); halt && end.dead != notDead {
						return &vm.Trap{Kind: vm.TrapKilled, Msg: "dead at injection"}
					}
					return nil
				}
			}}
	}
	var end, ignored earlyEnd
	early, _ := c.runSolo(&Experiment{Rank: rank, Trigger: at}, arm(true, &end), nil, &end)
	return end.dead, early, cluster.RunSolo(arm(false, &ignored), rank, c.golden.tapes[rank], nil)
}

// fpSites maps each FP-environment flip description to the site
// ApplyFPRegisterFault reports for it.
func fpSites(im *image.Image) map[string]Site {
	m := vm.New(im)
	sites := make(map[string]Site)
	for seed := uint64(0); seed < 20_000; seed++ {
		d, s := ApplyFPRegisterFault(m, rng.New(seed))
		sites[d] = s
	}
	return sites
}

// TestDeadAtInjectionDirected holds each rule against the run it cuts
// short.  On the rank that sends, at the start of phase2, every flip a rule
// calls dead must run to the golden run's end — exit 0, every tape event
// matched — and the early stop must report exactly that; every flip no rule
// calls dead here is one that does change the run.
func TestDeadAtInjectionDirected(t *testing.T) {
	im := deadGuest(t)
	cfg := Config{Image: im, Ranks: 2}
	golden, err := testGolden(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := testArm(&cfg, golden)
	sym := func(name string) uint32 {
		s, ok := im.Lookup(name)
		if !ok {
			t.Fatalf("no symbol %s", name)
		}
		return s.Addr
	}
	word := func(m *vm.Machine, name string) uint32 {
		b, _ := m.RawRead(sym(name), 4)
		return binary.LittleEndian.Uint32(b)
	}
	probe := &firstFetch{pc: sym("phase2")}
	var end *vm.Machine
	cluster.RunSolo(cluster.Job{Image: im, Size: 2, Budget: golden.Instrs[0] + 1, Tracer: probe,
		Setup: func(_ int, m *vm.Machine, _ *mpi.Proc) { end = m }}, 0, golden.tapes[0], nil)
	at := probe.at - 1 // phase2's first instruction is the next to execute
	if probe.at == 0 || word(end, "q2") != word(end, "p")+16 {
		t.Fatalf("phase2 first fetched at %d; p %#x, q2 %#x", probe.at, word(end, "p"), word(end, "q2"))
	}

	memory := func(addr uint32, bit uint) func(*vm.Machine) Site {
		return func(m *vm.Machine) Site {
			flipByte(m, addr, bit)
			return Site{Kind: SiteMemory, At: addr}
		}
	}
	fpData := func(p int) func(*vm.Machine) Site {
		return func(m *vm.Machine) Site {
			m.FP.Regs[p] = -m.FP.Regs[p] - 3 // a different value whatever the tag
			return Site{Kind: SiteFPData, At: uint32(p)}
		}
	}
	sites := fpSites(im)
	fpWord := func(name string, bit uint) func(*vm.Machine) Site {
		return func(m *vm.Machine) Site {
			w := &m.FP.SWD
			if name == "TWD" {
				w = &m.FP.TWD
			}
			*w ^= 1 << bit
			return sites[fmt.Sprintf("%s bit %d", name, bit)]
		}
	}
	flags := func(bit uint) func(*vm.Machine) Site {
		return func(m *vm.Machine) Site {
			_, s := flipRegisterBit(m, isa.NumGPR+1, bit)
			return s
		}
	}
	// p's chunk: its payload byte 8 is where the second 8-byte chunk's
	// header goes once p is freed.  Allocator.Free reads headers without the
	// tracer, but never a flipped byte: a heap fault flips a payload byte of
	// a chunk allocated at the trigger, so it is in no header of a chunk
	// allocated then, and a chunk allocated later has its header written by
	// place before any Free can read it — here, over the flipped byte.
	heap := func(m *vm.Machine) Site { return memory(word(m, "p")+8, 1)(m) }
	for _, tc := range []struct {
		name string
		flip func(*vm.Machine) Site
		want deadRule
	}{
		{"MPI_Send buffer", memory(sym("sendbuf")+2, 1), notDead},
		{"write() buffer", memory(sym("outbuf")+5, 1), notDead},
		{"text fetched again", memory(sym("phase2"), 7), notDead}, // an opcode past the last
		{"text never fetched again", memory(sym("phase1")+isa.InstrBytes, 7), deadUnread},
		{"heap chunk re-placed", heap, deadUnread},
		{"FP Valid", fpData(5), notDead},
		{"FP Special", fpData(7), notDead},
		{"FP Zero", fpData(6), deadFPTag},
		{"FP Empty", fpData(4), deadFPTag},
		{"SWD bit 0", fpWord("SWD", 0), deadWriteOnly},
		{"SWD bit 11", fpWord("SWD", 11), notDead},
		{"SWD bit 13", fpWord("SWD", 13), notDead},
		{"SWD bit 15", fpWord("SWD", 15), deadWriteOnly},
		{"TWD Valid to Zero", fpWord("TWD", 10), notDead},
		{"flags bit 5", flags(5), deadWriteOnly},
	} {
		rule, early, full := soloBothWays(c, 0, at, tc.flip)
		end := full.Trap != nil && full.Trap.Kind == vm.TrapExit && full.Instrs == golden.Instrs[0] && full.Pos == len(golden.tapes[0])
		switch {
		case rule != tc.want:
			t.Errorf("%s: rule %s, want %s", tc.name, deadRuleNames[rule], deadRuleNames[tc.want])
		case rule == notDead && end:
			t.Errorf("%s: live, but the run ends as the golden run did", tc.name)
		case rule != notDead && (!end || early.Trap != golden.Result.Ranks[0].Trap || early.Instrs != full.Instrs || early.Pos != full.Pos):
			t.Errorf("%s: dead by %s; stopped early %+v %v, ran %+v %v", tc.name, deadRuleNames[rule], early, early.Trap, full, full.Trap)
		}
	}
}

// TestWriteOnlySites: of the FP environment CWD, FIP, FCS, FOO, FOS and SWD
// but its stack top (bits 11-13) are never read, and TWD is; of the flags
// word only the low isa.FlagsReadableBits are read.
func TestWriteOnlySites(t *testing.T) {
	im := faultTestImage(t)
	sites := fpSites(im)
	if len(sites) != 688 {
		t.Fatalf("%d of the 688 FP-environment bits drawn", len(sites))
	}
	for desc, s := range sites {
		var name string
		var bit uint
		fmt.Sscanf(desc, "%s bit %d", &name, &bit)
		want := SiteWriteOnly
		switch {
		case strings.HasPrefix(name, "st-phys"):
			want = SiteFPData
		case name == "TWD", name == "SWD" && bit >= 11 && bit <= 13:
			want = SiteOther
		}
		if s.Kind != want {
			t.Errorf("%s: %+v, want kind %d", desc, s, want)
		}
	}
	for bit := uint(0); bit < 32; bit++ {
		_, s := flipRegisterBit(vm.New(im), isa.NumGPR+1, bit)
		if want := bit >= isa.FlagsReadableBits; (s.Kind == SiteWriteOnly) != want {
			t.Errorf("flags bit %d: %+v, write-only should be %v", bit, s, want)
		}
	}
}
