package vm

import (
	"math"
	"testing"

	"mpifault/internal/abi"
	"mpifault/internal/asm"
	"mpifault/internal/image"
)

// pokeState gives every snapshotted field a distinctive value: registers,
// flags, FPU stack (top, tags, data), instruction count, memory in each
// writable segment, and a live heap allocation.
func pokeState(t *testing.T, m *Machine) (heapAddr uint32) {
	t.Helper()
	for i := range m.Regs {
		m.Regs[i] = 0xA0000000 + uint32(i)
	}
	m.Flags = 0b101
	m.Instrs = 7_777
	m.MinSP = m.Image.StackBase() + 16

	m.FP.Regs[2] = 3.25
	m.FP.SetTop(2)
	m.FP.SetTag(2, 0) // valid
	m.FP.FIP = 0x1234

	heapAddr = m.Heap.Alloc(64, abi.ChunkUser)
	if heapAddr == 0 {
		t.Fatal("heap alloc failed")
	}
	for _, w := range []struct {
		seg string
		off uint32
		v   uint32
	}{
		{"data", 0, 0x11111111},
		{"bss", 8, 0x22222222},
		{"stack", 4, 0x33333333},
	} {
		base, _, ok := m.SegmentRange(w.seg)
		if !ok {
			t.Fatalf("no %s segment", w.seg)
		}
		if trap := m.Store32(base+w.off, w.v); trap != nil {
			t.Fatalf("store %s: %v", w.seg, trap)
		}
	}
	if trap := m.Store32(heapAddr, 0x44444444); trap != nil {
		t.Fatalf("store heap: %v", trap)
	}
	return heapAddr
}

// checkState verifies everything pokeState set.
func checkState(t *testing.T, m *Machine, heapAddr uint32) {
	t.Helper()
	for i := range m.Regs {
		if m.Regs[i] != 0xA0000000+uint32(i) {
			t.Errorf("R%d = %#x", i, m.Regs[i])
		}
	}
	if m.Flags != 0b101 {
		t.Errorf("Flags = %#x", m.Flags)
	}
	if m.Instrs != 7_777 {
		t.Errorf("Instrs = %d", m.Instrs)
	}
	if m.MinSP != m.Image.StackBase()+16 {
		t.Errorf("MinSP = %#x", m.MinSP)
	}
	if m.FP.Regs[2] != 3.25 || m.FP.Top() != 2 || m.FP.Tag(2) != 0 || m.FP.FIP != 0x1234 {
		t.Errorf("FP env = %+v", m.FP)
	}
	if m.FP.TWD == 0xFFFF {
		t.Error("FP tag word still all-empty; tags not restored")
	}
	for _, w := range []struct {
		seg string
		off uint32
		v   uint32
	}{
		{"data", 0, 0x11111111},
		{"bss", 8, 0x22222222},
		{"stack", 4, 0x33333333},
	} {
		base, _, _ := m.SegmentRange(w.seg)
		got, trap := m.Load32(base + w.off)
		if trap != nil || got != w.v {
			t.Errorf("%s word = %#x, %v (want %#x)", w.seg, got, trap, w.v)
		}
	}
	if got, trap := m.Load32(heapAddr); trap != nil || got != 0x44444444 {
		t.Errorf("heap word = %#x, %v", got, trap)
	}
	if m.Heap.LiveBytes(abi.ChunkUser) != 64 {
		t.Errorf("live user bytes = %d, want 64", m.Heap.LiveBytes(abi.ChunkUser))
	}
}

func snapImage(t *testing.T) *image.Image {
	// Give the image real data and BSS segments so the per-segment pokes
	// don't alias each other (an empty BSS would make bss+8 a heap byte).
	return assemble(t, func(m *asm.Module, f *asm.Func) {
		m.Data("d", make([]byte, 64))
		m.BSS("b", 64)
	})
}

func TestSnapshotRestoreRoundtrip(t *testing.T) {
	im := snapImage(t)
	m := New(im)
	heapAddr := pokeState(t, m)
	snap := m.Snapshot()

	// The live machine stays runnable and mutable after the capture;
	// trash everything the snapshot recorded.
	dataBase, _, _ := m.SegmentRange("data")
	m.Regs[0] = 0xBAD
	m.Instrs = 1
	m.FP.SetTag(2, 3)
	if trap := m.Store32(dataBase, 0xDEAD); trap != nil {
		t.Fatalf("post-snapshot store: %v", trap)
	}
	if trap := m.Store32(heapAddr, 0xDEAD); trap != nil {
		t.Fatalf("post-snapshot store: %v", trap)
	}

	if snap.Instrs() != 7_777 {
		t.Errorf("snapshot Instrs = %d", snap.Instrs())
	}
	r := snap.NewMachine()
	checkState(t, r, heapAddr)

	// The restored allocator must be functional and independent.
	b := r.Heap.Alloc(32, abi.ChunkUser)
	if b == 0 {
		t.Fatal("alloc on restored machine failed")
	}
	if r.Heap.LiveBytes(abi.ChunkUser) != 96 {
		t.Errorf("restored live bytes = %d", r.Heap.LiveBytes(abi.ChunkUser))
	}
	if m.Heap.LiveBytes(abi.ChunkUser) != 64 {
		t.Error("alloc on restored machine leaked into the original allocator")
	}
}

func TestSnapshotCOWIsolation(t *testing.T) {
	im := snapImage(t)
	m := New(im)
	heapAddr := pokeState(t, m)
	snap := m.Snapshot()

	// Two machines restored from the same snapshot share backing bytes;
	// writes on one must never reach the other or the original.
	r1 := snap.NewMachine()
	r2 := snap.NewMachine()
	dataBase, _, _ := m.SegmentRange("data")
	if trap := r1.Store32(dataBase, 0x55555555); trap != nil {
		t.Fatal(trap)
	}
	if trap := r1.Store32(heapAddr, 0x66666666); trap != nil {
		t.Fatal(trap)
	}
	checkState(t, r2, heapAddr)
	checkState(t, m, heapAddr)
	if got, _ := r1.Load32(dataBase); got != 0x55555555 {
		t.Errorf("r1 lost its own write: %#x", got)
	}

	// And the reverse direction: writes on the original after the capture
	// must not show through machines restored later.
	if trap := m.Store32(dataBase, 0x77777777); trap != nil {
		t.Fatal(trap)
	}
	r3 := snap.NewMachine()
	checkState(t, r3, heapAddr)
}

// TestSamePages: page tables compare by content, whatever shares what — a
// nil page and a zero page are equal, as are a page shared by pointer and
// a private copy of it, and a table that runs out equals one that goes on
// in zeros.
func TestSamePages(t *testing.T) {
	p, q := new(page), new(page)
	p[7] = 1
	*q = *p
	for _, tc := range []struct {
		name string
		a, b []*page
		want bool
	}{
		{"nil and zero page", []*page{nil}, []*page{new(page)}, true},
		{"shared pointer", []*page{p}, []*page{p}, true},
		{"private copy", []*page{p}, []*page{q}, true},
		{"one byte", []*page{p}, []*page{new(page)}, false},
		{"shorter table, zero tail", []*page{p}, []*page{p, nil, new(page)}, true},
		{"shorter table, nonzero tail", []*page{p}, []*page{p, nil, q}, false},
		{"empty and nil tables", nil, []*page{}, true},
	} {
		if got := samePages(tc.a, tc.b); got != tc.want || samePages(tc.b, tc.a) != tc.want {
			t.Errorf("%s: %v, want %v both ways", tc.name, got, tc.want)
		}
	}
}

// TestMachineMatches: a machine matches a snapshot of itself and a machine
// restored from one, whatever its statistics say, and stops matching on
// any change to what an instruction reads.
func TestMachineMatches(t *testing.T) {
	im := snapImage(t)
	m := New(im)
	heapAddr := pokeState(t, m)
	m.FP.Regs[3] = math.NaN()
	snap := m.Snapshot()
	if !m.Matches(snap) || !snap.NewMachine().Matches(snap) {
		t.Fatal("a machine does not match its own snapshot")
	}
	dataBase, _, _ := m.SegmentRange("data")
	textBase, _, _ := m.SegmentRange("text")
	for _, tc := range []struct {
		name   string
		change func(*Machine)
		want   bool
	}{
		{"MinSP", func(m *Machine) { m.MinSP -= 4 }, true},
		{"heap peaks", func(m *Machine) { m.Heap.PeakUser++; m.Heap.PeakMPI++ }, true},
		{"a dirty text slot holding equal bytes", func(m *Machine) {
			b, _ := m.RawRead(textBase, 8)
			m.RawWrite(textBase, b)
		}, true},
		{"a data byte written back", func(m *Machine) { flip(m, dataBase); flip(m, dataBase) }, true},
		{"a data byte", func(m *Machine) { flip(m, dataBase) }, false},
		{"a heap byte", func(m *Machine) { flip(m, heapAddr) }, false},
		{"a stack byte", func(m *Machine) { flip(m, m.Image.StackBase()+4) }, false},
		{"a text byte", func(m *Machine) { flip(m, textBase) }, false},
		{"a GPR", func(m *Machine) { m.Regs[5] ^= 1 }, false},
		{"the PC", func(m *Machine) { m.PC ^= 4 }, false},
		{"the flags", func(m *Machine) { m.Flags ^= 1 << 20 }, false},
		{"the instruction count", func(m *Machine) { m.Instrs++ }, false},
		{"an FP register's sign at zero", func(m *Machine) { m.FP.Regs[0] = math.Copysign(0, -1) }, false},
		{"an FP register's NaN payload", func(m *Machine) {
			m.FP.Regs[3] = math.Float64frombits(math.Float64bits(m.FP.Regs[3]) ^ 1)
		}, false},
		{"the FP status word", func(m *Machine) { m.FP.SWD ^= 1 }, false},
		{"the heap break", func(m *Machine) { m.Heap.brk += 8 }, false},
		{"a free", func(m *Machine) { m.Heap.Free(heapAddr) }, false},
	} {
		r := snap.NewMachine()
		tc.change(r)
		if got := r.Matches(snap); got != tc.want {
			t.Errorf("%s: matches %v, want %v", tc.name, got, tc.want)
		}
	}
}

func flip(m *Machine, addr uint32) {
	b, _ := m.RawRead(addr, 1)
	m.RawWrite(addr, []byte{b[0] ^ 0x10})
}

// TestSnapshotMidRun snapshots a machine stopped on a budget inside real
// execution and checks the restored machine finishes with the identical
// architectural outcome as the original.
func TestSnapshotMidRun(t *testing.T) {
	im := assemble(t, func(_ *asm.Module, f *asm.Func) {
		// A loop long enough to interrupt: 1000 iterations of add.
		f.Movi(1, 0)
		f.Movi(2, 1000)
		loop := f.NewLabel()
		f.Label(loop)
		f.Addi(1, 1, 3)
		f.Addi(2, 2, -1)
		f.Cmpi(2, 0)
		f.Bne(loop)
	})
	run := func(m *Machine) (uint32, uint64) {
		m.Handler = &testHandler{}
		res := m.Run(1 << 20)
		if res.Reason != StopTrap || res.Trap.Kind != TrapExit {
			t.Fatalf("run did not exit cleanly: %+v", res)
		}
		return m.Regs[1], m.Instrs
	}

	ref := New(im)
	wantR1, wantInstrs := run(ref)

	m := New(im)
	m.Handler = &testHandler{}
	if res := m.Run(500); res.Reason != StopBudget {
		t.Fatalf("expected budget stop, got %+v", res)
	}
	snap := m.Snapshot()
	r := snap.NewMachine()
	if r.Instrs != 500 {
		t.Fatalf("restored Instrs = %d", r.Instrs)
	}
	gotR1, gotInstrs := run(r)
	if gotR1 != wantR1 || gotInstrs != wantInstrs {
		t.Fatalf("restored run diverged: R1=%d instrs=%d, want R1=%d instrs=%d",
			gotR1, gotInstrs, wantR1, wantInstrs)
	}
}
