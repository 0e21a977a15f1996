package vm

import (
	"maps"
	"math"
	"slices"

	"mpifault/internal/image"
	"mpifault/internal/isa"
)

// Snapshot is an immutable copy of a Machine's full architectural state:
// registers, FPU environment, retired-instruction count, segment images
// and heap-allocator bookkeeping.  It is the per-rank building block of a
// cluster checkpoint (the analogue of a CRIU dump of one MPI process).
//
// Memory is captured as the segments' page tables, not the pages: taking
// a snapshot drops the live machine's owned marks and shares its tables
// (its next write to a segment copies the table, and to a page the page,
// first), and every machine created from the snapshot starts from the
// same shared tables.  N concurrent experiments restored from one
// checkpoint therefore share every page they do not write, and successive
// snapshots of one machine share every page it did not write in between —
// the same trick New uses against the program image, applied to a mid-run
// state.
type Snapshot struct {
	regs      [isa.NumGPR]uint32
	pc, flags uint32
	fp        FPEnv
	instrs    uint64
	minSP     uint32

	im        *image.Image
	segs      [5][]*page // page tables in Machine.segments order
	textDirty []uint64
	heap      heapSnap
}

// heapSnap captures the Allocator's host-side bookkeeping.  The chunk
// headers themselves live in guest memory and are covered by the heap
// segment bytes.
type heapSnap struct {
	brk               uint32
	free              []span
	allocated         map[uint32]uint32
	liveUser, liveMPI uint32
	peakUser, peakMPI uint32
}

// Snapshot captures the machine's current state.  The machine must be
// quiescent (not executing on another goroutine).  Its pages become
// copy-on-write against the snapshot; the machine remains runnable.
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{
		regs:   m.Regs,
		pc:     m.PC,
		flags:  m.Flags,
		fp:     m.FP,
		instrs: m.Instrs,
		minSP:  m.MinSP,
		im:     m.Image,
	}
	for i, seg := range m.segments() {
		s.segs[i], seg.owned = seg.pages, nil
	}
	m.tlb = [tlbSize]tlbEntry{} // no cached page is storable any more
	if m.textDirty != nil {
		s.textDirty = append([]uint64(nil), m.textDirty...)
	}
	h := m.Heap
	s.heap = heapSnap{
		brk:       h.brk,
		free:      append([]span(nil), h.free...),
		allocated: make(map[uint32]uint32, len(h.allocated)),
		liveUser:  h.liveUser,
		liveMPI:   h.liveMPI,
		peakUser:  h.PeakUser,
		peakMPI:   h.PeakMPI,
	}
	for addr, size := range h.allocated {
		s.heap.allocated[addr] = size
	}
	return s
}

// NewMachine materializes a runnable machine from the snapshot.  All
// pages alias the snapshot's copy-on-write; Handler, Tracer,
// trigger and stop state start clear, exactly as after New.
func (s *Snapshot) NewMachine() *Machine {
	im := s.im
	m := &Machine{Image: im}
	m.mapSegments(s.segs)
	// Compiled superblock state is never captured: it is re-derived from
	// the image's shared tables, with the snapshot's dirty bitmap
	// re-applied so runs still refuse to execute into overwritten slots.
	p := predecodeFor(im)
	m.pre = p.instrs
	m.sbProg = p.prog
	m.sbEnd = p.end
	if s.textDirty != nil {
		m.textDirty = append([]uint64(nil), s.textDirty...)
		m.rebuildSBDirty()
	}
	m.Regs = s.regs
	m.PC = s.pc
	m.Flags = s.flags
	m.FP = s.fp
	m.Instrs = s.instrs
	m.MinSP = s.minSP
	m.Heap = &Allocator{
		m:         m,
		brk:       s.heap.brk,
		free:      append([]span(nil), s.heap.free...),
		allocated: make(map[uint32]uint32, len(s.heap.allocated)),
		liveUser:  s.heap.liveUser,
		liveMPI:   s.heap.liveMPI,
		PeakUser:  s.heap.peakUser,
		PeakMPI:   s.heap.peakMPI,
	}
	for addr, size := range s.heap.allocated {
		m.Heap.allocated[addr] = size
	}
	return m
}

// Instrs returns the retired-instruction count at the capture point.
func (s *Snapshot) Instrs() uint64 { return s.instrs }

// Matches reports whether the machine is in the state s captured: the
// same registers, PC, flags, FPU environment (data registers bit for
// bit), retired-instruction count, memory byte for byte and allocator
// bookkeeping — everything NewMachine restores that an instruction or the
// host on the machine's behalf reads.  Left out: MinSP and the heap's peak
// marks, which are statistics, and the predecode dirty bitmap, which only
// makes a machine re-decode bytes that are the same.  A machine that
// matches executes on, given the same inputs, exactly as one restored
// from s.
func (m *Machine) Matches(s *Snapshot) bool {
	if m.Image != s.im || m.Regs != s.regs || m.PC != s.pc || m.Flags != s.flags || m.Instrs != s.instrs {
		return false
	}
	a, b := m.FP, s.fp
	for i := range a.Regs {
		if math.Float64bits(a.Regs[i]) != math.Float64bits(b.Regs[i]) {
			return false
		}
	}
	a.Regs, b.Regs = [isa.NumFPReg]float64{}, [isa.NumFPReg]float64{} // == would miss NaN and ±0
	if a != b {
		return false
	}
	for i, seg := range m.segments() {
		if !samePages(seg.pages, s.segs[i]) {
			return false
		}
	}
	h := m.Heap
	return h.brk == s.heap.brk && h.liveUser == s.heap.liveUser && h.liveMPI == s.heap.liveMPI &&
		slices.Equal(h.free, s.heap.free) && maps.Equal(h.allocated, s.heap.allocated)
}

// samePages reports whether two page tables hold the same bytes: a page
// shared by pointer is equal, and a nil page, or one past a table's end,
// reads as zeros.
func samePages(a, b []*page) bool {
	for i := range max(len(a), len(b)) {
		p, q := &zeroPage, &zeroPage
		if i < len(a) && a[i] != nil {
			p = a[i]
		}
		if i < len(b) && b[i] != nil {
			q = b[i]
		}
		if p != q && *p != *q {
			return false
		}
	}
	return true
}
