package vm

import (
	"mpifault/internal/abi"
	"mpifault/internal/isa"
)

// DisablePredecode forces the machine back onto the per-instruction
// byte-decode fetch path.  The differential tests use it to check that
// predecoded execution is semantically invisible.  Superblocks are
// compiled from the predecoded table, so they go with it.
func (m *Machine) DisablePredecode() {
	m.pre = nil
	m.DisableSuperblocks()
}

// FPDepth returns how many slots are currently non-empty, which the
// register-usage analysis uses to confirm the paper's observation that
// generated code keeps only a few live FP stack slots.
func (m *Machine) FPDepth() int {
	n := 0
	for p := 0; p < isa.NumFPReg; p++ {
		if m.FP.Tag(p) != isa.TagEmpty {
			n++
		}
	}
	return n
}

// SegmentRange returns [base, end) of the named segment for injector
// targeting.  Valid names: text, data, bss, heap, stack.
func (m *Machine) SegmentRange(name string) (uint32, uint32, bool) {
	var s *segment
	switch name {
	case "text":
		s = &m.text
	case "data":
		s = &m.data
	case "bss":
		s = &m.bss
	case "heap":
		s = &m.heap
	case "stack":
		s = &m.stack
	default:
		return 0, 0, false
	}
	return s.base, s.base + s.length, true
}

// LiveBytes returns currently allocated payload bytes for the given tag.
func (a *Allocator) LiveBytes(tag uint32) uint32 {
	if tag == abi.ChunkMPI {
		return a.liveMPI
	}
	return a.liveUser
}

// Seen returns how many instructions the recorder has observed.
func (f *FlightRecorder) Seen() uint64 { return f.n }
