package vm

import (
	"bytes"
	"math"
	"sort"
	"sync/atomic"
	"testing"

	"mpifault/internal/abi"
	"mpifault/internal/asm"
	"mpifault/internal/image"
	"mpifault/internal/isa"
)

// maxLockstepWords bounds the raw program FuzzSuperblockLockstep runs.
const maxLockstepWords = 64

// lockstepImage links a fixed prologue — r1 and r2 pointing into a BSS
// scratch buffer, small values in r3-r5, two values on the FP stack —
// followed by body's whole text words and an exit.  The data segment
// starts with a pool of doubles where a small program's FldConst
// constants sit, so seeds assembled from such programs load numbers.
func lockstepImage(body []byte) (*image.Image, error) {
	n := len(body) / isa.InstrBytes
	if n > maxLockstepWords {
		n = maxLockstepWords
	}
	b := asm.NewBuilder()
	m := b.Module("fz", image.OwnerUser)
	pool := make([]float64, 32)
	for i := range pool {
		pool[i] = float64(i+1)*1.375 - 9
	}
	m.DataF64("pool", pool...)
	m.BSS("scratch", 256)
	f := m.Func("main")
	f.MoviSym(isa.R1, "scratch", 0)
	f.MoviSym(isa.R2, "scratch", 128)
	f.Movi(isa.R3, 3)
	f.Movi(isa.R4, -7)
	f.Movi(isa.R5, 1<<20)
	f.Fld1()
	f.FldConst(2.5)
	for i := 0; i < n; i++ {
		f.Movi(isa.R0, 0) // placeholder, overwritten below
	}
	f.Movi(isa.R0, 0)
	f.Sys(abi.SysExit)
	im, err := b.Link(asm.LinkConfig{HeapSize: 1 << 16, StackSize: 16 << 10})
	if err != nil {
		return nil, err
	}
	// No machine has loaded the image yet, so its text may still change.
	main, _ := im.Lookup("main")
	at := main.Addr + main.Size - image.TextBase - uint32(n+2)*isa.InstrBytes
	copy(im.Text[at:], body[:n*isa.InstrBytes])
	return im, nil
}

// mainText returns the text words of the function emit assembles.
func mainText(t testing.TB, emit func(m *asm.Module, f *asm.Func)) []byte {
	im := assemble(t, emit)
	main, _ := im.Lookup("main")
	off := main.Addr - image.TextBase
	return im.Text[off : off+main.Size]
}

// archBits is an archState with its FP registers as bit patterns, so two
// NaNs compare by payload instead of never comparing equal.
type archBits struct {
	archState
	fp [isa.NumFPReg]uint64
}

func bitsOf(s archState) archBits {
	b := archBits{archState: s}
	for i, v := range s.FP.Regs {
		b.fp[i] = math.Float64bits(v)
	}
	b.FP.Regs = [isa.NumFPReg]float64{}
	return b
}

// FuzzSuperblockLockstep: the per-instruction interpreter is the oracle
// for the superblock tier.  A raw program behind a fixed prologue, with a
// text flip and a register flip armed at fuzz-chosen instruction counts,
// runs to the same budget on a compiled machine and a DisableSuperblocks
// one; both must stop the same way, with the same trap kind, PC and code,
// the same architectural state and retired-instruction count, and the
// same scratch memory.
func FuzzSuperblockLockstep(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		alu := mainText(f, func(_ *asm.Module, fn *asm.Func) { emitALU(fn, randomALU(seed)) })
		vals, ops := randomFPChain(seed)
		fp := mainText(f, func(_ *asm.Module, fn *asm.Func) { emitFPChain(fn, vals, ops) })
		at := uint16(3 + 5*seed)
		f.Add(alu, uint16(0), uint16(0), uint16(0), uint8(0), uint16(0), uint16(1000))
		f.Add(alu, at, at+2, uint16(8*(seed+8)), uint8(seed), uint16(40*seed), uint16(1000))
		f.Add(fp, at+1, at, uint16(8*(seed+10)+3), uint8(2*seed), uint16(200+seed), uint16(1000))
	}
	f.Fuzz(func(t *testing.T, body []byte, textAt, regAt, textOff uint16, textBit uint8, regBit, budget uint16) {
		im, err := lockstepImage(body)
		if err != nil {
			t.Fatal(err)
		}
		scratch, _ := im.Lookup("scratch")
		flipText := func(m *Machine) {
			addr := image.TextBase + uint32(textOff)%uint32(len(im.Text))
			if b, ok := m.RawRead(addr, 1); ok {
				m.RawWrite(addr, []byte{b[0] ^ 1<<(textBit%8)})
			}
		}
		flipReg := func(m *Machine) {
			if r := int(regBit/32) % (isa.NumGPR + 1); r < isa.NumGPR {
				m.Regs[r] ^= 1 << (regBit % 32)
			} else {
				m.Flags ^= 1 << (regBit % 32)
			}
		}
		type event struct {
			at uint64
			do func(*Machine)
		}
		var events []event
		if textAt != 0 {
			events = append(events, event{uint64(textAt), flipText})
		}
		if regAt != 0 {
			events = append(events, event{uint64(regAt), flipReg})
		}
		sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })

		type end struct {
			out     RunResult
			state   archState
			scratch []byte
		}
		run := func(interpret bool) end {
			m := New(im)
			if interpret {
				m.DisableSuperblocks()
			}
			m.Handler = &testHandler{}
			m.Stop = new(atomic.Bool)
			var arm func(i int)
			arm = func(i int) {
				if i == len(events) {
					return
				}
				m.TriggerAt = events[i].at
				m.TriggerFn = func(m *Machine) *Trap {
					events[i].do(m)
					arm(i + 1)
					return nil
				}
			}
			arm(0)
			out := m.Run(1 + uint64(budget)%50_000)
			mem, _ := m.RawRead(scratch.Addr, int(scratch.Size))
			return end{out, stateOf(m), mem}
		}
		sb, in := run(false), run(true)
		if sb.out.Reason != in.out.Reason || !sameTrap(sb.out.Trap, in.out.Trap) {
			t.Fatalf("stop diverged: superblock %+v %v, interpreter %+v %v", sb.out, sb.out.Trap, in.out, in.out.Trap)
		}
		if bitsOf(sb.state) != bitsOf(in.state) {
			t.Fatalf("state diverged:\n superblock  %+v\n interpreter %+v", sb.state, in.state)
		}
		if !bytes.Equal(sb.scratch, in.scratch) {
			t.Fatalf("scratch memory diverged:\n superblock  %x\n interpreter %x", sb.scratch, in.scratch)
		}
	})
}

// FuzzHeapAndFrameWalk: the walks fault targeting runs over guest memory
// a fault may already have corrupted — the heap scan (Allocator.Chunks),
// free() of an arbitrary address and the frame-pointer walk — never
// panic, stop within the walk's 256-frame bound, and report only chunks
// inside the heap segment, whatever bytes cover the chunk headers and the
// stack.
func FuzzHeapAndFrameWalk(f *testing.F) {
	f.Add([]byte{0, 16, 0, 0, 64, 1, 1, 0, 2, 0, 3, 0xff, 3, 40, 8, 0x11}, uint32(0))
	f.Add([]byte{0, 200, 0, 0, 8, 0, 0, 1, 0, 2, 1, 5, 0xaa, 3, 0, 4, 0, 0, 0, 0}, uint32(0x12345678))
	f.Add(bytes.Repeat([]byte{3, 12, 0x7f}, 20), uint32(image.StackTop-64))
	f.Fuzz(func(t *testing.T, ops []byte, addr uint32) {
		m := New(pagedImage())
		a, lo := m.Heap, m.Image.StackBase()
		// A well-formed chain of eight frames, innermost at the FP register,
		// for the corruption below to break.
		fp := image.StackTop - 8*32
		m.Regs[isa.FP] = fp
		for k := uint32(0); k < 8; k++ {
			saved := fp + 32
			if k == 7 {
				saved = 0
			}
			m.RawWrite(fp, le32(saved))
			m.RawWrite(fp+4, le32(m.Image.Entry))
			fp = saved
		}
		var live []uint32
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		for len(ops) > 0 {
			switch next() % 5 {
			case 0: // malloc
				size := uint32(next())<<4 | uint32(next()&15)
				tag := uint32(abi.ChunkUser)
				if next()&1 == 1 {
					tag = abi.ChunkMPI
				}
				if p := a.Alloc(size, tag); p != 0 {
					live = append(live, p)
				}
			case 1: // free a live chunk
				if len(live) > 0 {
					i := int(next()) % len(live)
					a.Free(live[i])
					live = append(live[:i], live[i+1:]...)
				}
			case 2: // random bytes over a chunk header
				if len(live) > 0 {
					p := live[int(next())%len(live)]
					m.RawWrite(p-chunkHeader+uint32(next()%chunkHeader), []byte{next(), next()})
				}
			case 3: // random bytes over the stack
				off := uint32(next())<<2 | uint32(next()&3)
				m.RawWrite(image.StackTop-1-off%(image.StackTop-lo), []byte{next(), next(), next(), next()})
			case 4: // a wild frame pointer
				m.Regs[isa.FP] = uint32(next())<<24 | uint32(next())<<16 | uint32(next())<<8 | uint32(next())
			}
		}
		for _, c := range a.Chunks() {
			if c.Payload < m.Image.HeapBase+chunkHeader || c.Payload+c.Size > a.Brk() || a.Brk() > m.Image.HeapLimit {
				t.Fatalf("chunk %+v outside the heap [%#x, %#x)", c, m.Image.HeapBase, a.Brk())
			}
		}
		a.Free(addr)
		for _, p := range live {
			a.Free(p)
		}
		if frames := m.WalkFrames(); len(frames) > 256 {
			t.Fatalf("walk found %d frames", len(frames))
		}
	})
}
