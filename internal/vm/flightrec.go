package vm

// FlightRecorder is a Tracer that keeps the last N retired program
// counters in a fixed ring buffer — the fault-forensics analogue of a
// hardware last-branch record.  Attached to the injected rank of a
// campaign experiment, it answers the question the final outcome row
// cannot: *where* execution went between the bit flip and the
// manifestation.
//
// It is deliberately minimal: one slice store and one increment per
// retired instruction, no allocation after construction, and no
// synchronization — a machine runs on a single goroutine, and the
// campaign reads the ring only after the job's goroutines are joined.
// A nil *FlightRecorder records nothing (campaigns attach it only when
// forensics are requested, so the default hot path is untouched).
type FlightRecorder struct {
	ring []uint32
	n    uint64 // total Exec events observed
}

// NewFlightRecorder returns a recorder keeping the last n PCs.
// n <= 0 selects the default depth of 64.
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = 64
	}
	return &FlightRecorder{ring: make([]uint32, n)}
}

// Exec implements Tracer.
func (f *FlightRecorder) Exec(pc uint32) {
	f.ring[f.n%uint64(len(f.ring))] = pc
	f.n++
}

// Load implements Tracer; data accesses are not recorded.
func (f *FlightRecorder) Load(addr uint32, size int) {}

// Store implements Tracer; data accesses are not recorded.
func (f *FlightRecorder) Store(addr uint32, size int) {}

// Reset clears the recorder for reuse; the ring's storage is kept.
// Campaign workers pool recorders across experiments so forensics does
// not allocate a fresh ring per injection.
func (f *FlightRecorder) Reset() { f.n = 0 }

// LastPCs returns the recorded program counters in execution order,
// oldest first; the final element is the PC of the last retired
// instruction.  An empty or partially filled ring returns only what was
// recorded.
func (f *FlightRecorder) LastPCs() []uint32 {
	size := uint64(len(f.ring))
	if f.n < size {
		return append([]uint32(nil), f.ring[:f.n]...)
	}
	out := make([]uint32, size)
	start := f.n % size // index of the oldest entry
	copy(out, f.ring[start:])
	copy(out[size-start:], f.ring[:start])
	return out
}
