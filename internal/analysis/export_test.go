package analysis

import "sort"

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

// PartitionAt returns the benign mask and class identities at pc, and
// whether pc was partitioned.
func (eq *Equivalence) PartitionAt(pc uint32) (benignMask uint16, classIDs [10]uint64, ok bool) {
	p, ok := eq.parts[pc]
	if !ok {
		return 0, classIDs, false
	}
	return p.benign, p.ids, true
}

// StaticBenignAt reports whether addr
// falls inside a user data/BSS symbol the analysis claims is benign
// (never referenced by reachable code).
func (eq *Equivalence) StaticBenignAt(addr uint32) bool {
	i := sort.Search(len(eq.benignData), func(i int) bool { return eq.benignData[i].hi > addr })
	return i < len(eq.benignData) && eq.benignData[i].lo <= addr
}
