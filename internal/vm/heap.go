package vm

import (
	"sort"

	"mpifault/internal/abi"
)

// Allocator is the guest heap allocator — the analogue of the paper's
// malloc wrapper built on GNU libc's memory-allocation hooks (§3.2).
//
// Every chunk is preceded by an 8-byte header *stored in guest memory*:
// a 32-bit tag identifying the owner (user application or MPI library) and
// the 32-bit chunk size.  The fault injector scans these headers to find
// user-owned chunks, exactly as the paper's injector does; and because the
// headers live in guest memory, heap faults can corrupt them, in which
// case free() detects the inconsistency and aborts the process the way
// glibc's heap-corruption check would.
type Allocator struct {
	m         *Machine
	brk       uint32            // first never-used heap address
	free      []span            // sorted, coalesced free spans
	allocated map[uint32]uint32 // payload addr -> payload size

	// liveUser/liveMPI track currently allocated bytes per owner;
	// PeakUser records the "stable heap size" reported in Table 1.
	liveUser, liveMPI uint32
	PeakUser, PeakMPI uint32
}

type span struct {
	addr, size uint32
}

const chunkHeader = 8

func newAllocator(m *Machine) *Allocator {
	return &Allocator{
		m:         m,
		brk:       m.Image.HeapBase,
		allocated: make(map[uint32]uint32),
	}
}

func align8(v uint32) uint32 { return (v + 7) &^ 7 }

// Alloc carves a chunk of at least size bytes tagged with owner tag
// (abi.ChunkUser or abi.ChunkMPI) and returns the payload address, or 0 if
// the heap is exhausted.
func (a *Allocator) Alloc(size uint32, tag uint32) uint32 {
	if size == 0 {
		size = 1
	}
	need := align8(size) + chunkHeader

	// First fit over the free list.
	for i, s := range a.free {
		if s.size >= need {
			addr := s.addr
			if s.size == need {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i] = span{addr: s.addr + need, size: s.size - need}
			}
			return a.place(addr, need, tag)
		}
	}

	// Grow the break.
	if a.brk+need > a.m.Image.HeapLimit || a.brk+need < a.brk {
		return 0
	}
	addr := a.brk
	a.brk += need
	return a.place(addr, need, tag)
}

// place writes the guest-resident header and records the chunk.
func (a *Allocator) place(addr, need, tag uint32) uint32 {
	payload := addr + chunkHeader
	psize := need - chunkHeader
	a.m.RawWrite(addr, le32(tag))
	a.m.RawWrite(addr+4, le32(psize))
	a.allocated[payload] = psize
	switch tag {
	case abi.ChunkMPI:
		a.liveMPI += psize
		if a.liveMPI > a.PeakMPI {
			a.PeakMPI = a.liveMPI
		}
	default:
		a.liveUser += psize
		if a.liveUser > a.PeakUser {
			a.PeakUser = a.liveUser
		}
	}
	return payload
}

// Free releases the chunk whose payload starts at addr.  Freeing an
// address that was never allocated, or whose guest-resident header has
// been corrupted, raises SIGSEGV — the moral equivalent of glibc's
// "malloc(): corrupted chunk" abort.
func (a *Allocator) Free(addr uint32) *Trap {
	psize, ok := a.allocated[addr]
	if !ok {
		return &Trap{Kind: TrapSegv, PC: a.m.PC, Addr: addr, Msg: "free of unallocated chunk"}
	}
	hdr, ok := a.m.RawRead(addr-chunkHeader, chunkHeader)
	if !ok {
		return &Trap{Kind: TrapSegv, PC: a.m.PC, Addr: addr, Msg: "free: unmapped header"}
	}
	tag := readLE32(hdr)
	gotSize := readLE32(hdr[4:])
	if (tag != abi.ChunkUser && tag != abi.ChunkMPI) || gotSize != psize {
		return &Trap{Kind: TrapSegv, PC: a.m.PC, Addr: addr, Msg: "free: corrupted chunk header"}
	}
	delete(a.allocated, addr)
	switch tag {
	case abi.ChunkMPI:
		a.liveMPI -= psize
	default:
		a.liveUser -= psize
	}
	a.insertFree(span{addr: addr - chunkHeader, size: align8(psize) + chunkHeader})
	return nil
}

// insertFree adds s to the sorted free list, coalescing neighbours.
func (a *Allocator) insertFree(s span) {
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].addr > s.addr })
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = s
	// Coalesce with successor, then predecessor.
	if i+1 < len(a.free) && a.free[i].addr+a.free[i].size == a.free[i+1].addr {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].addr+a.free[i-1].size == a.free[i].addr {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// Chunk is the injector's view of one allocated chunk.
type Chunk struct {
	Payload uint32 // payload start address
	Size    uint32 // payload size in bytes
	Tag     uint32 // owner tag as read from guest memory
	Valid   bool   // header magic verified
}

// Chunks returns a snapshot of all allocated chunks sorted by address,
// with tags read from the (possibly corrupted) guest-resident headers —
// this is the scan the paper's heap injector performs when it "looks for
// any memory chunk marked as user".
func (a *Allocator) Chunks() []Chunk {
	out := make([]Chunk, 0, len(a.allocated))
	for payload, size := range a.allocated {
		c := Chunk{Payload: payload, Size: size}
		if hdr, ok := a.m.RawRead(payload-chunkHeader, chunkHeader); ok {
			c.Tag = readLE32(hdr)
			c.Valid = c.Tag == abi.ChunkUser || c.Tag == abi.ChunkMPI
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Payload < out[j].Payload })
	return out
}

// Brk returns the current top of the heap.
func (a *Allocator) Brk() uint32 { return a.brk }

func le32(v uint32) []byte {
	return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
}

func readLE32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
