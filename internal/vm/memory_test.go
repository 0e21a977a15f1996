package vm

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"testing"

	"mpifault/internal/asm"
	"mpifault/internal/image"
	"mpifault/internal/isa"
)

// pagedImage is hand-built so that no segment edge except the text base
// and the stack top is page-aligned: data follows text at an odd
// address, BSS starts on the byte after data, every length leaves a
// partial tail page, and the stack base sits mid-page so its pages
// straddle the guest's 4 KiB address lines.
func pagedImage() *image.Image {
	text := make([]byte, pageSize+5*isa.InstrBytes) // all OpNop
	data := make([]byte, 2*pageSize+100)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	dataBase := image.TextBase + 3*pageSize + 8
	bssBase := dataBase + uint32(len(data))
	heapBase := (bssBase + 3*pageSize + 17 + pageSize) &^ (pageSize - 1)
	return &image.Image{
		Text: text, Data: data,
		DataBase: dataBase,
		BSSBase:  bssBase, BSSSize: 3*pageSize + 17,
		HeapBase: heapBase, HeapLimit: heapBase + 5*pageSize + 1000,
		StackSize: 3*pageSize + 72,
		Entry:     image.TextBase,
	}
}

// refMem is the reference model of one machine's memory: a flat byte
// slice per segment, in Machine.segments order.
type refMem [5][]byte

func newRefMem(im *image.Image) refMem {
	return refMem{
		bytes.Clone(im.Text), bytes.Clone(im.Data), make([]byte, im.BSSSize),
		make([]byte, im.HeapLimit-im.HeapBase), make([]byte, im.StackSize),
	}
}

func (r refMem) clone() refMem {
	var c refMem
	for i := range r {
		c[i] = bytes.Clone(r[i])
	}
	return c
}

// find resolves [addr, addr+n) under the machine's documented rules: the
// segment is the one holding addr, the range may not leave it, and only
// text refuses (non-raw) writes.
func (r refMem) find(im *image.Image, addr uint32, n int, write bool) ([]byte, bool) {
	bases := [5]uint32{image.TextBase, im.DataBase, im.BSSBase, im.HeapBase, im.StackBase()}
	for i, base := range bases {
		if off := addr - base; off < uint32(len(r[i])) {
			if (write && i == 0) || int(off)+n > len(r[i]) {
				return nil, false
			}
			return r[i][off : int(off)+n], true
		}
	}
	return nil, false
}

// memOp is one step of a paged-memory script; FuzzPagedMemory decodes
// its input into these, six bytes each.
type memOp struct {
	code, seg, anchor, delta, a, b byte
}

const (
	opLoad8 = iota
	opLoad32
	opLoadF64
	opStore8
	opStore32
	opStoreF64
	opReadBytes
	opWriteBytes
	opRawRead
	opRawWrite
	opSnapshot
	opNewMachine
	opSwitch
	numMemOps
)

// Anchors an op's address is measured from.
const (
	atStart  = iota // first byte of the segment
	atEnd           // first byte past the segment
	atPage          // start of segment page a
	atOffset        // offset a<<8|b
)

func (o memOp) bytes() []byte { return []byte{o.code, o.seg, o.anchor, o.delta, o.a, o.b} }

func script(ops ...memOp) []byte {
	var b []byte
	for _, o := range ops {
		b = append(b, o.bytes()...)
	}
	return b
}

// addr places the op: an anchor in one of the five segments (seg 5 is
// the unmapped gap below text) plus a signed delta of up to 32 bytes, so
// segment edges and page boundaries are hit from both sides.
func (o memOp) addr(im *image.Image) uint32 {
	bases := [6]uint32{image.TextBase, im.DataBase, im.BSSBase, im.HeapBase, im.StackBase(), 0x1000}
	lens := [6]uint32{uint32(len(im.Text)), uint32(len(im.Data)), im.BSSSize,
		im.HeapLimit - im.HeapBase, im.StackSize, 2 * pageSize}
	s := o.seg % 6
	ab := uint32(o.a)<<8 | uint32(o.b)
	var off uint32
	switch o.anchor % 4 {
	case atEnd:
		off = lens[s]
	case atPage:
		off = uint32(o.a) % (lens[s]/pageSize + 1) * pageSize
	case atOffset:
		off = ab % lens[s]
	}
	return bases[s] + off + uint32(int32(int8(o.delta))/4)
}

// pagedWorld is a set of machines and snapshots with their models.
type pagedWorld struct {
	t      testing.TB
	im     *image.Image
	ms     []*Machine
	refs   []refMem
	snaps  []*Snapshot
	srefs  []refMem
	active int
}

func newPagedWorld(t testing.TB) *pagedWorld {
	im := pagedImage()
	return &pagedWorld{t: t, im: im, ms: []*Machine{New(im)}, refs: []refMem{newRefMem(im)}}
}

func (w *pagedWorld) checkTrap(step int, what string, addr uint32, trap *Trap, wantOK bool) {
	w.t.Helper()
	switch {
	case wantOK && trap != nil:
		w.t.Fatalf("step %d: %s %#x trapped: %v", step, what, addr, trap)
	case !wantOK && trap == nil:
		w.t.Fatalf("step %d: %s %#x succeeded, model faults", step, what, addr)
	case !wantOK && (trap.Kind != TrapSegv || trap.Addr != addr):
		w.t.Fatalf("step %d: %s %#x trap = %v addr %#x, want SIGSEGV at the access address", step, what, addr, trap.Kind, trap.Addr)
	}
}

// apply runs one op on the active machine and its model and compares
// what each returns.
func (w *pagedWorld) apply(step int, o memOp) {
	w.t.Helper()
	m, ref, im := w.ms[w.active], w.refs[w.active], w.im
	addr := o.addr(im)
	n := int(uint32(o.a)<<8|uint32(o.b)) % (3*pageSize + 1)
	fill := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(step*31 + i*7 + int(o.b))
		}
		return b
	}
	switch o.code % numMemOps {
	case opLoad8:
		got, trap := m.Load8(addr)
		want, ok := ref.find(im, addr, 1, false)
		w.checkTrap(step, "Load8", addr, trap, ok)
		if ok && got != want[0] {
			w.t.Fatalf("step %d: Load8 %#x = %#x, want %#x", step, addr, got, want[0])
		}
	case opLoad32:
		got, trap := m.Load32(addr)
		want, ok := ref.find(im, addr, 4, false)
		w.checkTrap(step, "Load32", addr, trap, ok)
		if ok && got != binary.LittleEndian.Uint32(want) {
			w.t.Fatalf("step %d: Load32 %#x = %#x, want %#x", step, addr, got, binary.LittleEndian.Uint32(want))
		}
	case opLoadF64:
		got, trap := m.LoadF64(addr)
		want, ok := ref.find(im, addr, 8, false)
		w.checkTrap(step, "LoadF64", addr, trap, ok)
		if ok && math.Float64bits(got) != binary.LittleEndian.Uint64(want) {
			w.t.Fatalf("step %d: LoadF64 %#x = %#x, want %#x", step, addr, math.Float64bits(got), binary.LittleEndian.Uint64(want))
		}
	case opStore8:
		dst, ok := ref.find(im, addr, 1, true)
		w.checkTrap(step, "Store8", addr, m.Store8(addr, o.a), ok)
		if ok {
			dst[0] = o.a
		}
	case opStore32:
		v := uint32(o.a)<<24 | uint32(o.b)<<16 | uint32(step)&0xffff
		dst, ok := ref.find(im, addr, 4, true)
		w.checkTrap(step, "Store32", addr, m.Store32(addr, v), ok)
		if ok {
			binary.LittleEndian.PutUint32(dst, v)
		}
	case opStoreF64:
		v := uint64(o.a)<<56 | uint64(o.b)<<40 | uint64(step)
		dst, ok := ref.find(im, addr, 8, true)
		w.checkTrap(step, "StoreF64", addr, m.StoreF64(addr, math.Float64frombits(v)), ok)
		if ok {
			binary.LittleEndian.PutUint64(dst, v)
		}
	case opReadBytes:
		got, trap := m.ReadBytes(addr, n)
		want, ok := ref.find(im, addr, n, false)
		w.checkTrap(step, "ReadBytes", addr, trap, ok)
		if ok && !bytes.Equal(got, want) {
			w.t.Fatalf("step %d: ReadBytes %#x+%d differs from the model", step, addr, n)
		}
	case opWriteBytes:
		data := fill(n)
		dst, ok := ref.find(im, addr, n, true)
		w.checkTrap(step, "WriteBytes", addr, m.WriteBytes(addr, data), ok)
		if ok {
			copy(dst, data)
		}
	case opRawRead:
		got, gotOK := m.RawRead(addr, n)
		want, ok := ref.find(im, addr, n, false)
		if gotOK != ok || !bytes.Equal(got, want) {
			w.t.Fatalf("step %d: RawRead %#x+%d ok=%v, model ok=%v or bytes differ", step, addr, n, gotOK, ok)
		}
	case opRawWrite:
		data := fill(int(o.a) % 17)
		dst, ok := ref.find(im, addr, len(data), false)
		if got := m.RawWrite(addr, data); got != ok {
			w.t.Fatalf("step %d: RawWrite %#x+%d = %v, model %v", step, addr, len(data), got, ok)
		}
		if ok {
			copy(dst, data)
		}
	case opSnapshot:
		if len(w.snaps) < 8 {
			w.snaps = append(w.snaps, m.Snapshot())
			w.srefs = append(w.srefs, ref.clone())
		}
	case opNewMachine:
		if len(w.snaps) > 0 && len(w.ms) < 8 {
			k := int(o.a) % len(w.snaps)
			w.ms = append(w.ms, w.snaps[k].NewMachine())
			w.refs = append(w.refs, w.srefs[k].clone())
		}
	case opSwitch:
		w.active = int(o.a) % len(w.ms)
	}
}

// checkAll compares every byte of every machine, and of a fresh machine
// from every snapshot, with its model: a write that leaked between
// siblings or into a snapshot shows up here.
func (w *pagedWorld) checkAll() {
	w.t.Helper()
	check := func(who string, i int, m *Machine, ref refMem) {
		for j, seg := range m.segments() {
			got, ok := m.RawRead(seg.base, int(seg.length))
			if !ok || !bytes.Equal(got, ref[j]) {
				w.t.Fatalf("%s %d segment %d differs from its model", who, i, j)
			}
		}
	}
	for i, m := range w.ms {
		check("machine", i, m, w.refs[i])
	}
	for i, s := range w.snaps {
		check("snapshot", i, s.NewMachine(), w.srefs[i])
	}
}

func runMemScript(t testing.TB, in []byte) {
	w := newPagedWorld(t)
	for step := 0; len(in) >= 6 && step < 4096; step, in = step+1, in[6:] {
		w.apply(step, memOp{in[0], in[1], in[2], in[3], in[4], in[5]})
	}
	w.checkAll()
}

// memSeeds are the fuzz target's seed corpus, also run as a plain test.
func memSeeds() [][]byte {
	var edges []memOp
	for seg := byte(0); seg < 5; seg++ {
		for _, anchor := range []byte{atStart, atEnd, atPage} {
			for _, delta := range []int8{-32, -16, -8, -4, 0, 4} { // addr −8 … +1
				for _, code := range []byte{opStoreF64, opLoadF64, opStore32, opLoad32, opStore8, opLoad8} {
					edges = append(edges, memOp{code, seg, anchor, byte(delta), 1, seg})
				}
			}
		}
	}
	restore := []memOp{
		{opStore8, 4, atEnd, 0xfc, 7, 0}, // last byte of the stack
		{opStore32, 3, atPage, 0, 0, 9},  // heap page 0, owned and cached at the snapshot
		{opSnapshot, 0, 0, 0, 0, 0},
		{opNewMachine, 0, 0, 0, 0, 0},
		{opNewMachine, 0, 0, 0, 0, 0},
		{opSwitch, 0, 0, 0, 1, 0},
		{opStore32, 3, atPage, 0, 0, 1},     // first store after restore: shared page
		{opStore32, 4, atEnd, 0xf0, 0, 2},   // push-like store at the stack top
		{opStoreF64, 3, atPage, 0xf0, 2, 3}, // straddles shared page 1 and nil page 2
		{opSwitch, 0, 0, 0, 2, 0},
		{opLoad32, 3, atPage, 0, 0, 0},           // sibling still sees the snapshot
		{opWriteBytes, 3, atPage, 8, 0x20, 0x10}, // two pages and a bit
		{opSwitch, 0, 0, 0, 0, 0},
		{opStore32, 3, atPage, 0, 0, 7}, // the snapshotted machine no longer owns page 0
		{opReadBytes, 3, atStart, 0, 0x30, 0},
		{opSnapshot, 0, 0, 0, 0, 0},
		{opRawWrite, 0, atPage, 0xf0, 16, 5}, // text, across its page boundary
		{opStore32, 0, atStart, 0, 0, 0},     // store into text faults
		{opNewMachine, 0, 0, 0, 1, 0},
		{opSwitch, 0, 0, 0, 3, 0},
		{opReadBytes, 0, atStart, 0, 0x10, 0x28},
	}
	bulk := []memOp{
		{opWriteBytes, 2, atStart, 0, 0x30, 0x11}, // all of BSS
		{opWriteBytes, 2, atStart, 4, 0x30, 0x11}, // one byte too far
		{opReadBytes, 1, atStart, 0, 0x20, 0x64},  // all of data
		{opReadBytes, 1, atStart, 0, 0x20, 0x65},  // runs into BSS: fault
		{opReadBytes, 5, atStart, 0, 0, 0},        // unmapped, n = 0
		{opRawRead, 4, atEnd, 0xe0, 0, 8},         // last 8 bytes of the stack
		{opRawRead, 4, atEnd, 0xe0, 0, 9},
	}
	// The stack base is mid-page, so stack page 0 is reachable through
	// two cache slots: a view cached through one must not survive the
	// page being replaced and then written through the other.
	twoSlots := []memOp{
		{opLoad32, 4, atOffset, 0, 0, 76},
		{opStore32, 4, atOffset, 0, 0, 0},
		{opStoreF64, 4, atOffset, 0, 0, 68},
		{opLoad32, 4, atOffset, 0, 0, 72},
	}
	return [][]byte{script(edges...), script(restore...), script(bulk...), script(twoSlots...)}
}

func TestPagedMemorySeeds(t *testing.T) {
	for _, s := range memSeeds() {
		runMemScript(t, s)
	}
}

// FuzzPagedMemory drives random loads, stores, bulk and raw accesses,
// snapshots and restores against the flat reference model and requires
// identical bytes, identical trap kind and address, and that no write on
// one machine is ever visible through a sibling or a snapshot.
func FuzzPagedMemory(f *testing.F) {
	for _, s := range memSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) { runMemScript(t, in) })
}

func heapPage(m *Machine, i uint32) uint32 { return m.heap.base + i*pageSize }

// TestUnalignedAcrossPages: a scalar access that straddles two pages is
// assembled from both, whatever state each is in.
func TestUnalignedAcrossPages(t *testing.T) {
	m := New(pagedImage())
	// Page 0 owned, page 1 nil: the load sees zeros for the upper half
	// and allocates nothing.
	if trap := m.Store32(heapPage(m, 1)-4, 0xAABBCCDD); trap != nil {
		t.Fatal(trap)
	}
	if v, trap := m.Load32(heapPage(m, 1) - 2); trap != nil || v != 0x0000AABB {
		t.Fatalf("Load32 across owned|nil = %#x, %v", v, trap)
	}
	if len(m.heap.pages) != 1 {
		t.Fatalf("a load grew the page table to %d", len(m.heap.pages))
	}
	// The store backs exactly the two pages it touches.
	f := math.Float64frombits(0x1122334455667788)
	if trap := m.StoreF64(heapPage(m, 2)-3, f); trap != nil {
		t.Fatal(trap)
	}
	if got, trap := m.LoadF64(heapPage(m, 2) - 3); trap != nil || got != f {
		t.Fatalf("LoadF64 across pages = %v, %v", got, trap)
	}
	if lo, _ := m.Load32(heapPage(m, 2) - 4); lo != 0x66778800 {
		t.Fatalf("low page holds %#x", lo)
	}
	if hi, _ := m.Load32(heapPage(m, 2)); hi != 0x22334455 {
		t.Fatalf("high page holds %#x", hi)
	}
	if len(m.heap.pages) != 3 || !m.heap.isOwned(1) || !m.heap.isOwned(2) {
		t.Fatalf("pages %d owned %v", len(m.heap.pages), m.heap.owned)
	}
	// A straddle that runs off the segment faults before any byte lands.
	last := m.heap.base + m.heap.length - 4
	if trap := m.StoreF64(last, 1); trap == nil || trap.Kind != TrapSegv || trap.Addr != last {
		t.Fatalf("store off the heap end: %v", trap)
	}
	if v, _ := m.Load32(last); v != 0 {
		t.Fatalf("faulting store left %#x behind", v)
	}
}

// TestReadBytesSpansPageStates: one ReadBytes over a shared, an owned and
// a nil page returns the right bytes and changes no page's state.
func TestReadBytesSpansPageStates(t *testing.T) {
	g := New(pagedImage())
	g.WriteBytes(heapPage(g, 0), bytes.Repeat([]byte{0x11}, pageSize))
	m := g.Snapshot().NewMachine()
	m.WriteBytes(heapPage(m, 1), bytes.Repeat([]byte{0x22}, pageSize))
	shared := m.heap.pages[0]
	got, trap := m.ReadBytes(heapPage(m, 0)+100, 2*pageSize+50)
	if trap != nil {
		t.Fatal(trap)
	}
	want := append(bytes.Repeat([]byte{0x11}, pageSize-100), bytes.Repeat([]byte{0x22}, pageSize)...)
	want = append(want, make([]byte, 150)...)
	if !bytes.Equal(got, want) {
		t.Fatal("ReadBytes over shared|owned|nil pages returned the wrong bytes")
	}
	if m.heap.pages[0] != shared || m.heap.isOwned(0) || len(m.heap.pages) != 2 {
		t.Fatal("a read unshared or allocated a page")
	}
}

// TestReadsDoNotAllocate: reading a whole untouched segment costs the
// result buffer and nothing else (the prefix-backed segments grew, and
// on a restored machine copied, their backing on such a read).
func TestReadsDoNotAllocate(t *testing.T) {
	m := New(pagedImage())
	n := int(m.heap.length)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b, trap := m.ReadBytes(m.heap.base, n)
	v, _ := m.Load32(m.heap.base + m.heap.length - 4)
	runtime.ReadMemStats(&after)
	if trap != nil || len(b) != n || v != 0 {
		t.Fatalf("read: %d bytes, %v", len(b), trap)
	}
	// TotalAlloc counts size classes and whatever the runtime allocates
	// meanwhile; backing the range as well would at least double it.
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2*uint64(n) {
		t.Errorf("reading %d untouched bytes allocated %d", n, got)
	}
	if got := testing.AllocsPerRun(20, func() { m.ReadBytes(m.heap.base, n) }); got != 1 {
		t.Errorf("ReadBytes made %v allocations, want the result buffer only", got)
	}
	if m.heap.pages != nil {
		t.Error("a read backed the heap")
	}
}

// TestConcurrentRestores: 64 machines restored from one snapshot write
// the same and different addresses at once; none sees another's bytes and
// the snapshot stays intact.  The race detector checks the sharing.
func TestConcurrentRestores(t *testing.T) {
	g := New(pagedImage())
	common := heapPage(g, 0) + 64
	g.Store32(common, 0xC0FFEE)
	g.Store32(image.StackTop-4, 0x57AC)
	snap := g.Snapshot()
	var wg sync.WaitGroup
	for i := uint32(0); i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := snap.NewMachine()
			own := heapPage(m, 0) + 1024 + 8*i // same page as its siblings' slots
			for r := uint32(0); r < 100; r++ {
				m.Store32(common, i<<16|r)
				m.Store32(own, ^i)
				m.Store32(image.StackTop-4, i)
			}
			for _, c := range []struct{ addr, want uint32 }{
				{common, i<<16 | 99}, {own, ^i}, {image.StackTop - 4, i},
				{own + 4, 0}, {heapPage(m, 0) + 1024 + 8*((i+1)%64), 0},
			} {
				if v, trap := m.Load32(c.addr); trap != nil || v != c.want {
					t.Errorf("machine %d: [%#x] = %#x, %v; want %#x", i, c.addr, v, trap, c.want)
				}
			}
		}()
	}
	wg.Wait()
	m := snap.NewMachine()
	if v, _ := m.Load32(common); v != 0xC0FFEE {
		t.Errorf("snapshot heap word = %#x", v)
	}
	if v, _ := m.Load32(image.StackTop - 4); v != 0x57AC {
		t.Errorf("snapshot stack word = %#x", v)
	}
}

// TestSnapshotChainSharesPages: successive snapshots — of one running
// machine, or of a machine restored from the previous one — share every
// page that was not written in between, by pointer.
func TestSnapshotChainSharesPages(t *testing.T) {
	const heap = 3
	g := New(pagedImage())
	g.Store32(heapPage(g, 0), 1)
	g.Store32(heapPage(g, 1), 2)
	s0 := g.Snapshot()
	g.Store32(heapPage(g, 1), 3)
	s1 := g.Snapshot()
	if s0.segs[heap][0] != s1.segs[heap][0] {
		t.Error("unwritten page 0 was copied between snapshots of one machine")
	}
	if s0.segs[heap][1] == s1.segs[heap][1] {
		t.Error("rewritten page 1 is shared between snapshots")
	}
	for i := range s0.segs[0] {
		if s0.segs[0][i] != s1.segs[0][i] || s0.segs[0][i] != predecodeFor(g.Image).text[i] {
			t.Errorf("text page %d is not the image's", i)
		}
	}

	r := s1.NewMachine()
	r.Store32(heapPage(r, 2), 4)
	s2 := r.Snapshot()
	if s2.segs[heap][0] != s0.segs[heap][0] || s2.segs[heap][1] != s1.segs[heap][1] {
		t.Error("snapshot of a restored machine copied pages it never wrote")
	}
	if len(s1.segs[heap]) != 2 || len(s2.segs[heap]) != 3 {
		t.Errorf("page tables hold %d and %d pages", len(s1.segs[heap]), len(s2.segs[heap]))
	}
	// A snapshot ends ownership: the next store copies again and leaves
	// the captured page alone.
	r.Store32(heapPage(r, 2), 5)
	if v, _ := s2.NewMachine().Load32(heapPage(r, 2)); v != 4 {
		t.Errorf("store after Snapshot reached the snapshot: %d", v)
	}
}

// TestTextWriteAcrossPages: the injector's RawWrite into text straddling
// a page boundary unshares both pages, dirties the predecode slots on
// both sides and truncates the superblock runs through them, on that
// machine only; guest stores into text still fault.
func TestTextWriteAcrossPages(t *testing.T) {
	im := assemble(t, func(_ *asm.Module, f *asm.Func) {
		for i := 0; i < 2*pageSize/isa.InstrBytes; i++ {
			f.Movi(isa.R1, int32(i))
		}
	})
	m, sib := New(im), New(im)
	boundary := image.TextBase + pageSize
	bad := bytes.Repeat([]byte{0xFF}, 2*isa.InstrBytes)
	if !m.RawWrite(boundary-isa.InstrBytes, bad) {
		t.Fatal("RawWrite into text refused")
	}
	slot := uint32(pageSize/isa.InstrBytes) - 1
	for _, s := range []uint32{slot, slot + 1} {
		if !m.textSlotDirty(s) || m.sbEnd[s] != s {
			t.Errorf("slot %d: dirty=%v run end=%d", s, m.textSlotDirty(s), m.sbEnd[s])
		}
		if sib.textSlotDirty(s) || sib.sbEnd[s] == s {
			t.Errorf("sibling's slot %d was invalidated", s)
		}
	}
	if m.sbEnd[slot-10] != slot || sib.sbEnd[slot-10] <= slot+1 {
		t.Errorf("run through the boundary ends at %d (sibling %d), want %d", m.sbEnd[slot-10], sib.sbEnd[slot-10], slot)
	}
	if !m.text.isOwned(0) || !m.text.isOwned(1) || sib.text.pages[0] != predecodeFor(im).text[0] {
		t.Error("text pages: writer must own both, sibling must still share the image's")
	}
	m.Handler = &testHandler{}
	res := m.Run(1 << 20)
	if res.Trap == nil || res.Trap.Kind != TrapIll || res.Trap.PC != boundary-isa.InstrBytes {
		t.Fatalf("corrupted text: %+v", res.Trap)
	}
	if _, trap := run(t, im); trap.Kind != TrapExit {
		t.Fatalf("fresh machine of the same image: %v", trap)
	}
	if trap := sib.Store32(boundary-2, 1); trap == nil || trap.Kind != TrapSegv || trap.Addr != boundary-2 {
		t.Fatalf("store into text: %v", trap)
	}
}
