// Package vm implements the simulated 32-bit machine that executes guest
// MPI processes.
//
// One Machine models one MPI process: an x86-32-style register file
// (including the x87-like floating-point stack and its environment
// registers), a Linux-style segmented address space, and an interpreter
// with precise traps.  The fault injector manipulates Machine state
// directly — flipping bits in registers, segment bytes, heap chunks and
// stack frames — and the machine's semantics turn those flips into the
// behaviours the paper observes: segmentation faults, illegal
// instructions, NaN propagation, silent data corruption and livelock.
package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"mpifault/internal/image"
	"mpifault/internal/isa"
)

// TrapKind enumerates why execution stopped abnormally.
type TrapKind uint8

const (
	TrapNone       TrapKind = iota
	TrapSegv                // SIGSEGV: unmapped or protected address
	TrapIll                 // SIGILL: invalid opcode or register encoding
	TrapFpe                 // SIGFPE: integer divide error
	TrapExit                // guest called exit()
	TrapAbort               // guest called abort() after an internal check failed
	TrapMPIFatal            // fatal error inside the MPI runtime (MPICH aborts)
	TrapMPIHandler          // user-registered MPI error handler was invoked
	TrapKilled              // terminated by the harness (another rank failed / hang verdict)
)

func (k TrapKind) String() string {
	switch k {
	case TrapSegv:
		return "SIGSEGV"
	case TrapIll:
		return "SIGILL"
	case TrapFpe:
		return "SIGFPE"
	case TrapExit:
		return "exit"
	case TrapAbort:
		return "abort"
	case TrapMPIFatal:
		return "mpi-fatal"
	case TrapMPIHandler:
		return "mpi-handler"
	case TrapKilled:
		return "killed"
	default:
		return "none"
	}
}

// Trap describes an abnormal stop.
type Trap struct {
	Kind TrapKind
	PC   uint32 // faulting instruction address
	Addr uint32 // faulting memory address, when applicable
	Code int32  // exit/abort code
	Msg  string // human-readable detail
}

func (t *Trap) Error() string {
	if t.Msg != "" {
		return fmt.Sprintf("%s at pc=0x%08x: %s", t.Kind, t.PC, t.Msg)
	}
	return fmt.Sprintf("%s at pc=0x%08x addr=0x%08x", t.Kind, t.PC, t.Addr)
}

// Tracer observes memory activity for working-set analysis (§6.1.2).
// Implementations must be cheap; the hooks run on every instruction.
type Tracer interface {
	Exec(pc uint32)              // an instruction was fetched from pc
	Load(addr uint32, size int)  // data load
	Store(addr uint32, size int) // data store
}

// SyscallHandler services SYS instructions.  A nil return continues
// execution; a non-nil Trap stops the machine (TrapExit for normal
// termination).  Handlers may block (e.g. in MPI_Recv); each machine runs
// on its own goroutine.
type SyscallHandler interface {
	Syscall(m *Machine, num int32) *Trap
}

// FPEnv is the x87-style floating-point environment.  The stack top lives
// in bits 11-13 of SWD, exactly as on the x87, so a bit flip injected into
// SWD corrupts the register stack's addressing.
type FPEnv struct {
	Regs [isa.NumFPReg]float64 // physical data registers
	CWD  uint16                // control word (default 0x037F, as on x87)
	SWD  uint16                // status word; bits 11-13 = top
	TWD  uint16                // tag word, 2 bits per physical register
	FIP  uint32                // last FP instruction pointer
	FCS  uint32                // last FP instruction "segment"
	FOO  uint32                // last FP operand offset
	FOS  uint32                // last FP operand "segment"
}

// Top returns the current stack-top physical index.
func (e *FPEnv) Top() int { return int(e.SWD>>11) & 7 }

// SetTop stores t into SWD bits 11-13.
func (e *FPEnv) SetTop(t int) { e.SWD = e.SWD&^(7<<11) | uint16(t&7)<<11 }

// Tag returns the 2-bit tag of physical register p.
func (e *FPEnv) Tag(p int) int { return int(e.TWD>>(uint(p&7)*2)) & 3 }

// SetTag sets the 2-bit tag of physical register p.
func (e *FPEnv) SetTag(p, tag int) {
	sh := uint(p&7) * 2
	e.TWD = e.TWD&^(3<<sh) | uint16(tag&3)<<sh
}

// Machine is one simulated guest process.
type Machine struct {
	// Regs are the general-purpose registers (see isa register indices).
	Regs [isa.NumGPR]uint32
	// PC is the program counter.
	PC uint32
	// Flags holds the condition flags (isa.Flag*).
	Flags uint32
	// FP is the floating-point environment.
	FP FPEnv

	// Instrs counts retired instructions; it is the machine's time axis
	// (the analogue of the paper's basic-block counts).
	Instrs uint64
	// MinSP tracks the lowest stack pointer observed, for stack-size
	// profiling (Table 1).
	MinSP uint32

	// Image is the program this machine was loaded from.
	Image *image.Image
	// Heap is the guest heap allocator ("guest libc malloc").
	Heap *Allocator

	// Handler services system calls; it must be set before Run.
	Handler SyscallHandler
	// Tracer, when non-nil, observes execution for working-set analysis.
	Tracer Tracer

	// TriggerAt, when nonzero, invokes TriggerFn once just before the
	// instruction at which Instrs == TriggerAt executes.  The fault
	// injector uses it as the analogue of the paper's periodic ptrace stop.
	// A Trap it returns ends Run there, with no further instruction retired.
	TriggerAt uint64
	TriggerFn func(*Machine) *Trap

	// Stop, when non-nil, is polled periodically by Run; once set, the
	// machine halts with TrapKilled.  The cluster uses it to tear down
	// still-computing ranks after a job-level verdict (SIGKILL analogue).
	Stop *atomic.Bool

	text  segment
	data  segment
	bss   segment
	heap  segment
	stack segment

	// pre is the image's shared predecoded text table (see predecode.go);
	// nil forces the byte-decode fetch path.
	pre []isa.Instr
	// textDirty marks predecode slots overwritten on this machine.
	textDirty []uint64

	// Superblock tier (see superblock.go).  sbProg is the image's shared
	// compiled uop program; sbEnd is the per-slot run-end table, shared
	// until the first text write clones it (sbEndOwned).  nil sbProg
	// forces per-instruction interpretation.
	sbProg     []uop
	sbEnd      []uint32
	sbEndOwned bool

	// tlb caches recently resolved pages for the hot accessors (see
	// loadFast/storeFast).  A pure cache of this machine's own page
	// tables — never captured, never aliased across machines.
	tlb [tlbSize]tlbEntry
}

// segment is one region of the guest address space, backed by a page
// table: pages[i] holds bytes [i*pageSize, (i+1)*pageSize) of the segment.
// A page is in one of three states.  nil (or beyond len(pages)): never
// written, reads as zeros.  Shared: aliases the image's page table or a
// Snapshot's, and must be copied before this machine writes it.  Owned
// (owned[i] set): private to this machine.  Both tables are sized lazily
// up to the highest page touched, so loading a machine is O(pages of text
// and data), a store costs at most one page, and a machine's footprint is
// proportional to the pages it writes — whichever end of a segment they
// are at.  A fault campaign creates one machine per rank per experiment;
// this is what keeps that cheap.
type segment struct {
	base     uint32
	length   uint32
	writable bool
	pages    []*page
	// owned is sized lazily like pages; missing entries are false.  While
	// it is nil the machine has written nothing to the segment since it
	// was mapped or snapshotted, and pages itself still aliases the
	// image's table or a Snapshot's: the first write copies the table.
	owned []bool
}

const (
	pageShift = 12
	pageSize  = 1 << pageShift
)

type page [pageSize]byte

// zeroPage backs reads of nil pages.  It is never written.
var zeroPage page

// pagesOf copies b into a fresh page table (the tail page zero-padded).
func pagesOf(b []byte) []*page {
	pages := make([]*page, (len(b)+pageSize-1)/pageSize)
	for i := range pages {
		pages[i] = new(page)
		copy(pages[i][:], b[i*pageSize:])
	}
	return pages
}

// decodeAt byte-decodes the instruction at offset off; the caller has
// bounds-checked it.
func (s *segment) decodeAt(off uint32) isa.Instr {
	var b [isa.InstrBytes]byte
	s.read(off, b[:])
	return isa.Decode(b[:])
}

func (s *segment) contains(addr uint32) bool {
	return addr-s.base < s.length // unsigned wrap makes addr < base fail too
}

// readPage returns the backing of page i for reading.  It never allocates.
func (s *segment) readPage(i uint32) *page {
	if i < uint32(len(s.pages)) && s.pages[i] != nil {
		return s.pages[i]
	}
	return &zeroPage
}

// isOwned reports whether page i is private to this machine.
func (s *segment) isOwned(i uint32) bool {
	return i < uint32(len(s.owned)) && s.owned[i]
}

// read copies [off, off+len(dst)) of the segment into dst, page by page;
// the caller has bounds-checked the range.
func (s *segment) read(off uint32, dst []byte) {
	for len(dst) > 0 {
		n := copy(dst, s.readPage(off >> pageShift)[off&(pageSize-1):])
		dst, off = dst[n:], off+uint32(n)
	}
}

// New loads the image into a fresh machine.  Text and data share the
// image's pages copy-on-write and the zero segments start with no pages,
// so this is cheap no matter how large the address space is.
func New(im *image.Image) *Machine {
	m := &Machine{Image: im}
	p := predecodeFor(im)
	m.mapSegments([5][]*page{p.text, p.data})
	m.pre = p.instrs
	m.sbProg = p.prog
	m.sbEnd = p.end
	m.PC = im.Entry
	m.Regs[isa.SP] = image.StackTop
	m.Regs[isa.FP] = image.StackTop
	m.MinSP = image.StackTop
	m.FP.CWD = 0x037F
	m.FP.TWD = 0xFFFF // all slots empty
	m.Heap = newAllocator(m)
	return m
}

// segments lists the machine's segments in Snapshot table order.
func (m *Machine) segments() [5]*segment {
	return [5]*segment{&m.text, &m.data, &m.bss, &m.heap, &m.stack}
}

// mapSegments lays out m.Image's address space over the given page tables
// (in segments order); the tables and every page in them start shared.
func (m *Machine) mapSegments(tables [5][]*page) {
	im := m.Image
	m.text = segment{base: image.TextBase, length: uint32(len(im.Text))}
	m.data = segment{base: im.DataBase, length: uint32(len(im.Data)), writable: true}
	m.bss = segment{base: im.BSSBase, length: im.BSSSize, writable: true}
	m.heap = segment{base: im.HeapBase, length: im.HeapLimit - im.HeapBase, writable: true}
	m.stack = segment{base: im.StackBase(), length: im.StackSize, writable: true}
	for i, s := range m.segments() {
		s.pages = tables[i]
	}
}

// StopReason says why Run returned.
type StopReason uint8

const (
	StopTrap StopReason = iota
	StopBudget
)

// RunResult is the outcome of Run.
type RunResult struct {
	Reason StopReason
	Trap   *Trap // set when Reason == StopTrap
}

// Run executes until a trap (including normal exit) or until budget
// instructions have retired.  budget == 0 means unlimited.
//
// The outer loop only handles events — budget exhaustion, stop polling,
// trigger firing — at precomputed instruction-count boundaries; between
// boundaries instructions retire through the superblock tier
// (superblock.go) when compiled state is available, or the
// per-instruction Step loop otherwise.  The event checks run at exactly
// the same instruction counts in both modes (stop is polled on entry to
// Run and whenever Instrs is a multiple of 4096, the trigger fires just
// before the instruction at which Instrs == TriggerAt executes), so
// campaign outcomes are bit-identical across tiers.
//
// Stop latency bound: a Stop set before Run is entered is honoured
// before any instruction retires; a Stop set while Run is executing is
// honoured after at most 4096 further instructions (the next poll
// boundary).  TestRunStopLatency pins both halves of the bound.
func (m *Machine) Run(budget uint64) RunResult {
	if m.Stop != nil && m.Stop.Load() {
		return RunResult{Reason: StopTrap,
			Trap: &Trap{Kind: TrapKilled, PC: m.PC, Msg: "killed by harness"}}
	}
	for {
		if budget != 0 && m.Instrs >= budget {
			return RunResult{Reason: StopBudget}
		}
		if m.Stop != nil && m.Instrs&4095 == 0 && m.Stop.Load() {
			return RunResult{Reason: StopTrap,
				Trap: &Trap{Kind: TrapKilled, PC: m.PC, Msg: "killed by harness"}}
		}
		if m.TriggerAt != 0 && m.Instrs >= m.TriggerAt {
			fn := m.TriggerFn
			m.TriggerAt = 0
			m.TriggerFn = nil
			if fn != nil {
				t := fn(m)
				// fn may have corrupted SP (register-fault injection);
				// probe MinSP here so both execution tiers observe the
				// corrupted value even if the next instruction
				// overwrites it.
				m.updateMinSP()
				if t != nil {
					return RunResult{Reason: StopTrap, Trap: t}
				}
			}
			continue // fn may re-arm the trigger or alter state; recompute
		}

		// Next event boundary: run branch-light until Instrs reaches it.
		limit := uint64(math.MaxUint64)
		if budget != 0 {
			limit = budget
		}
		if m.TriggerAt != 0 && m.TriggerAt < limit {
			limit = m.TriggerAt
		}
		if m.Stop != nil {
			if poll := (m.Instrs | 4095) + 1; poll < limit {
				limit = poll
			}
		}
		if m.sbProg != nil && m.pre != nil {
			if t := m.runBlocks(limit); t != nil {
				return RunResult{Reason: StopTrap, Trap: t}
			}
			continue
		}
		for m.Instrs < limit {
			if t := m.Step(); t != nil {
				return RunResult{Reason: StopTrap, Trap: t}
			}
		}
	}
}

// segFor returns the segment containing addr, or nil.
func (m *Machine) segFor(addr uint32) *segment {
	// Ordered roughly by access frequency.
	switch {
	case m.stack.contains(addr):
		return &m.stack
	case m.heap.contains(addr):
		return &m.heap
	case m.data.contains(addr):
		return &m.data
	case m.bss.contains(addr):
		return &m.bss
	case m.text.contains(addr):
		return &m.text
	}
	return nil
}

func (m *Machine) segv(addr uint32) *Trap {
	return &Trap{Kind: TrapSegv, PC: m.PC, Addr: addr}
}

// locate resolves [addr, addr+n) to its segment and the offset of addr in
// it; a nil segment means the range is unmapped, runs off the end of its
// segment or (for write) is read-only, and the access faults at addr.
func (m *Machine) locate(addr uint32, n int, write bool) (*segment, uint32) {
	s := m.segFor(addr)
	if s == nil || (write && !s.writable) {
		return nil, 0
	}
	off := addr - s.base
	if int(off)+n > int(s.length) {
		return nil, 0
	}
	return s, off
}

// tlbEntry caches one resolved page: guest addresses [base, base+rlim)
// read from p, and [base, base+wlim) may be stored to it.  rlim is the
// page size except at a segment's tail; wlim equals rlim when the page is
// owned and its segment writable, else 0.  The zero entry matches nothing.
type tlbEntry struct {
	base       uint32
	rlim, wlim uint16 // pageSize fits: see the guard below
	p          *page
}

const _ = uint16(pageSize)

// tlbSize is the number of direct-mapped entries, indexed by the low bits
// of the guest page number.
const tlbSize = 16

// loadFast returns the backing bytes for an n-byte read at addr when it
// lands wholly inside a cached page; any miss (page not cached, access
// straddling the page or the segment end) returns nil and the caller
// takes the slow path, which refreshes the cache.
func (m *Machine) loadFast(addr uint32, n int) []byte {
	e := &m.tlb[(addr>>pageShift)%tlbSize]
	if off := addr - e.base; uint64(off)+uint64(n) <= uint64(e.rlim) {
		return e.p[off : int(off)+n]
	}
	return nil
}

// storeFast is loadFast for writes: only owned pages of writable segments
// qualify (a shared page must be copied by the slow path first).
func (m *Machine) storeFast(addr uint32, n int) []byte {
	e := &m.tlb[(addr>>pageShift)%tlbSize]
	if off := addr - e.base; uint64(off)+uint64(n) <= uint64(e.wlim) {
		return e.p[off : int(off)+n]
	}
	return nil
}

// cachePage installs the page of s holding addr in the slot that accesses
// to addr probe.
func (m *Machine) cachePage(s *segment, addr uint32) {
	i := (addr - s.base) >> pageShift
	start := i << pageShift
	e := tlbEntry{base: s.base + start, rlim: uint16(min(pageSize, s.length-start)), p: s.readPage(i)}
	if s.writable && s.isOwned(i) {
		e.wlim = e.rlim
	}
	m.tlb[(addr>>pageShift)%tlbSize] = e
}

// writePage returns page i of s for writing, first giving the machine a
// private copy of a shared page or a zeroed page in place of a nil one.
func (m *Machine) writePage(s *segment, i uint32) *page {
	if s.isOwned(i) {
		return s.pages[i]
	}
	if s.owned == nil {
		s.pages = slices.Clone(s.pages)
	}
	if n := int(i) + 1; n > len(s.pages) {
		s.pages = append(s.pages, make([]*page, n-len(s.pages))...)
	}
	if n := int(i) + 1; n > len(s.owned) {
		s.owned = append(s.owned, make([]bool, n-len(s.owned))...)
	}
	var p *page
	if old := s.pages[i]; old != nil {
		p = (*page)(append([]byte(nil), old[:]...)) // copies without zeroing first
	} else {
		p = new(page)
	}
	s.pages[i], s.owned[i] = p, true
	m.tlb = [tlbSize]tlbEntry{} // cached views of the replaced page are stale
	return p
}

// write copies src to [off, off+len(src)) of s, page by page; the caller
// has bounds-checked the range.
func (m *Machine) write(s *segment, off uint32, src []byte) {
	for len(src) > 0 {
		n := copy(m.writePage(s, off>>pageShift)[off&(pageSize-1):], src)
		src, off = src[n:], off+uint32(n)
	}
}

// load is the slow read path: a bounds check of the whole range, a
// page-by-page copy into dst and a cache refresh.  Reads never allocate
// or unshare pages.
func (m *Machine) load(addr uint32, dst []byte) *Trap {
	s, off := m.locate(addr, len(dst), false)
	if s == nil {
		return m.segv(addr)
	}
	s.read(off, dst)
	m.cachePage(s, addr)
	return nil
}

// Load32 reads a 32-bit little-endian word.
func (m *Machine) Load32(addr uint32) (uint32, *Trap) {
	b := m.loadFast(addr, 4)
	if b == nil {
		var buf [4]byte
		if t := m.load(addr, buf[:]); t != nil {
			return 0, t
		}
		b = buf[:]
	}
	if m.Tracer != nil {
		m.Tracer.Load(addr, 4)
	}
	return binary.LittleEndian.Uint32(b), nil
}

// Store32 writes a 32-bit little-endian word.
func (m *Machine) Store32(addr, v uint32) *Trap {
	b := m.storeFast(addr, 4)
	if b == nil {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], v)
		return m.WriteBytes(addr, buf[:])
	}
	if m.Tracer != nil {
		m.Tracer.Store(addr, 4)
	}
	binary.LittleEndian.PutUint32(b, v)
	return nil
}

// Load8 reads one byte.
func (m *Machine) Load8(addr uint32) (byte, *Trap) {
	b := m.loadFast(addr, 1)
	if b == nil {
		var buf [1]byte
		if t := m.load(addr, buf[:]); t != nil {
			return 0, t
		}
		b = buf[:]
	}
	if m.Tracer != nil {
		m.Tracer.Load(addr, 1)
	}
	return b[0], nil
}

// Store8 writes one byte.
func (m *Machine) Store8(addr uint32, v byte) *Trap {
	b := m.storeFast(addr, 1)
	if b == nil {
		return m.WriteBytes(addr, []byte{v})
	}
	if m.Tracer != nil {
		m.Tracer.Store(addr, 1)
	}
	b[0] = v
	return nil
}

// LoadF64 reads a float64.
func (m *Machine) LoadF64(addr uint32) (float64, *Trap) {
	b := m.loadFast(addr, 8)
	if b == nil {
		var buf [8]byte
		if t := m.load(addr, buf[:]); t != nil {
			return 0, t
		}
		b = buf[:]
	}
	if m.Tracer != nil {
		m.Tracer.Load(addr, 8)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// StoreF64 writes a float64.
func (m *Machine) StoreF64(addr uint32, v float64) *Trap {
	b := m.storeFast(addr, 8)
	if b == nil {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		return m.WriteBytes(addr, buf[:])
	}
	if m.Tracer != nil {
		m.Tracer.Store(addr, 8)
	}
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
	return nil
}

// ReadBytes copies n bytes starting at addr (crossing segments is an error).
func (m *Machine) ReadBytes(addr uint32, n int) ([]byte, *Trap) {
	s, off := m.locate(addr, n, false)
	if s == nil {
		return nil, m.segv(addr)
	}
	if m.Tracer != nil {
		m.Tracer.Load(addr, n)
	}
	out := make([]byte, n)
	s.read(off, out)
	return out, nil
}

// WriteBytes copies data into guest memory at addr.  It is also the slow
// path of the scalar stores: the whole range is bounds-checked before the
// first byte lands, then written page by page.
func (m *Machine) WriteBytes(addr uint32, data []byte) *Trap {
	s, off := m.locate(addr, len(data), true)
	if s == nil {
		return m.segv(addr)
	}
	if m.Tracer != nil {
		m.Tracer.Store(addr, len(data))
	}
	m.write(s, off, data)
	m.cachePage(s, addr)
	return nil
}

// RawRead reads guest memory ignoring permissions; it is the fault
// injector's view (ptrace PEEKDATA analogue).  ok is false if the range is
// unmapped.
func (m *Machine) RawRead(addr uint32, n int) ([]byte, bool) {
	s, off := m.locate(addr, n, false)
	if s == nil {
		return nil, false
	}
	out := make([]byte, n)
	s.read(off, out)
	return out, true
}

// RawWrite writes guest memory ignoring permissions (ptrace POKEDATA
// analogue); the fault injector uses it to corrupt even read-only text.
// A write into text additionally invalidates the predecode slots covering
// it, so the corrupted bytes are decoded afresh at their next fetch.
func (m *Machine) RawWrite(addr uint32, data []byte) bool {
	s, off := m.locate(addr, len(data), false)
	if s == nil {
		return false
	}
	m.write(s, off, data)
	if s == &m.text {
		m.markTextDirty(off, len(data))
	}
	return true
}

// Arg returns syscall argument i under the ABI convention (r0-r3, then the
// guest stack).
func (m *Machine) Arg(i int) (uint32, *Trap) {
	if i < 4 {
		return m.Regs[i], nil
	}
	return m.Load32(m.Regs[isa.SP] + uint32(4*(i-4)))
}
