package analysis

// FirstUses returns the first-use set of register reg (0..NumGPR-1, or
// FlagsBit for the flags word) at an instruction boundary; ok is false
// when pc is not a known reachable instruction.  An empty set with
// ok=true proves the register's value cannot reach any use.
func (d *Dataflow) FirstUses(pc uint32, reg int) ([]UseRef, bool) {
	entry, ok := d.firstUse[pc]
	if !ok || reg < 0 || reg >= nTrackedRegs {
		return nil, false
	}
	set := entry[reg]
	out := make([]UseRef, len(set))
	for i, p := range set {
		out[i] = unpackRef(p)
	}
	return out, true
}

// ClassID returns the equivalence-class identity of (pc, reg): a stable
// nonzero hash of the register and its first-use set, equal exactly for
// sites whose corrupted value flows into the same uses through the same
// operands.  It returns (0, true) when the set is empty — the site is
// provably benign and belongs to no class — and ok=false for unknown pcs.
func (d *Dataflow) ClassID(pc uint32, reg int) (uint64, bool) {
	entry, ok := d.firstUse[pc]
	if !ok || reg < 0 || reg >= nTrackedRegs {
		return 0, false
	}
	set := entry[reg]
	if len(set) == 0 {
		return 0, true
	}
	return classHash(reg, set), true
}

// classHash is FNV-1a over the register index and the packed, sorted
// first-use set, forced nonzero so that 0 can mean "no class".
func classHash(reg int, set []uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xFF
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(reg))
	for _, p := range set {
		mix(p)
	}
	if h == 0 {
		h = 1
	}
	return h
}
