package mpi

import (
	"sort"

	"mpifault/internal/abi"
	"mpifault/internal/vm"
)

// commInfo is the per-rank view of one communicator: its wire context id,
// its group (communicator rank -> world rank) and this process's rank
// within it.  MPI_COMM_WORLD and MPI_COMM_SELF are pre-registered; new
// communicators come from MPI_Comm_split / MPI_Comm_dup.
type commInfo struct {
	handle int32
	ctx    int32
	group  []int32 // comm rank -> world rank
	myRank int32
}

func (ci *commInfo) size() int32 { return int32(len(ci.group)) }

// world maps a communicator rank to a world rank.
func (ci *commInfo) world(r int32) int32 { return ci.group[r] }

// commRankOf maps a world rank back into the communicator (-1 if absent).
func (ci *commInfo) commRankOf(world int32) int32 {
	for i, w := range ci.group {
		if w == world {
			return int32(i)
		}
	}
	return -1
}

// initComms registers the built-in communicators for a rank.
func (p *Proc) initComms() {
	world := make([]int32, p.w.Size)
	for i := range world {
		world[i] = int32(i)
	}
	p.comms = map[int32]*commInfo{
		abi.CommWorld: {handle: abi.CommWorld, ctx: abi.CommWorld,
			group: world, myRank: int32(p.rank)},
		abi.CommSelf: {handle: abi.CommSelf, ctx: abi.CommSelf,
			group: []int32{int32(p.rank)}, myRank: 0},
	}
	p.nextComm = 256
}

// resolveComm validates a guest communicator handle.
func (p *Proc) resolveComm(m *vm.Machine, comm int32) (*commInfo, *vm.Trap) {
	ci, ok := p.comms[comm]
	if !ok {
		return nil, p.apiError(m, abi.ErrComm, "invalid communicator %d", comm)
	}
	return ci, nil
}

// registerComm installs a newly created communicator and returns its
// guest handle.
func (p *Proc) registerComm(ctx int32, group []int32, myRank int32) int32 {
	p.nextComm++
	h := p.nextComm
	p.comms[h] = &commInfo{handle: h, ctx: ctx, group: group, myRank: myRank}
	return h
}

// allocCtx reserves n consecutive wire context ids, globally unique in
// the world.  The caller (the parent communicator's rank 0) broadcasts
// the base to the members so every rank agrees.  The base depends on what
// other ranks allocated before, so it is a tape input.
func (p *Proc) allocCtx(n int32, m *vm.Machine) (int32, *vm.Trap) {
	return p.TapeInput(m, TapeCtx, n, nil, func() int32 {
		p.w.ctxCounter += int64(n)
		return int32(p.w.ctxCounter) - n + ctxDynamicBase
	})
}

// ctxDynamicBase keeps dynamically allocated contexts clear of the
// built-in communicator handles and below the internal-context offset.
const ctxDynamicBase = 0x400

// commSplit implements the MPI_Comm_split algorithm: allgather
// (color, key, worldRank) over the parent, group by color, order by
// (key, worldRank), and agree on wire contexts via the parent's rank 0.
// color < 0 (MPI_UNDEFINED) yields no new communicator (handle 0).
func (p *Proc) commSplit(parent *commInfo, color, key int32, m *vm.Machine) (int32, *vm.Trap) {
	type triple struct{ color, key, world int32 }
	mine := triple{color, key, int32(p.rank)}

	// Allgather the triples over the parent communicator.
	buf := make([]byte, 12)
	putI32(buf, mine.color)
	putI32(buf[4:], mine.key)
	putI32(buf[8:], mine.world)
	all, t := p.gatherHost(buf, parent, m)
	if t != nil {
		return 0, t
	}
	full, t := p.bcastHost(all, uint32(12*parent.size()), parent, m)
	if t != nil {
		return 0, t
	}
	triples := make([]triple, parent.size())
	for i := range triples {
		triples[i] = triple{
			color: getI32(full[12*i:]),
			key:   getI32(full[12*i+4:]),
			world: getI32(full[12*i+8:]),
		}
	}

	// Distinct colors in ascending order (MPI_UNDEFINED = negative skipped).
	colorSet := map[int32]bool{}
	for _, tr := range triples {
		if tr.color >= 0 {
			colorSet[tr.color] = true
		}
	}
	colors := make([]int32, 0, len(colorSet))
	for c := range colorSet {
		colors = append(colors, c)
	}
	sort.Slice(colors, func(i, j int) bool { return colors[i] < colors[j] })

	// Parent rank 0 allocates one context per color and broadcasts the
	// base, so all members agree on the wire numbering.
	var base int32
	if parent.myRank == 0 && len(colors) > 0 {
		if base, t = p.allocCtx(int32(len(colors)), m); t != nil {
			return 0, t
		}
	}
	bb := make([]byte, 4)
	putI32(bb, base)
	bb, t = p.bcastHost(bb, 4, parent, m)
	if t != nil {
		return 0, t
	}
	base = getI32(bb)

	if color < 0 {
		return 0, nil // MPI_UNDEFINED: not a member of any new group
	}

	// Build my color's group ordered by (key, world rank).
	var members []triple
	for _, tr := range triples {
		if tr.color == color {
			members = append(members, tr)
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].world < members[j].world
	})
	group := make([]int32, len(members))
	myRank := int32(-1)
	for i, tr := range members {
		group[i] = tr.world
		if tr.world == int32(p.rank) {
			myRank = int32(i)
		}
	}
	colorIdx := int32(sort.Search(len(colors), func(i int) bool { return colors[i] >= color }))
	return p.registerComm(base+colorIdx, group, myRank), nil
}

// commDup duplicates a communicator into a fresh context.
func (p *Proc) commDup(parent *commInfo, m *vm.Machine) (int32, *vm.Trap) {
	var base int32
	var t *vm.Trap
	if parent.myRank == 0 {
		if base, t = p.allocCtx(1, m); t != nil {
			return 0, t
		}
	}
	bb := make([]byte, 4)
	putI32(bb, base)
	bb, t = p.bcastHost(bb, 4, parent, m)
	if t != nil {
		return 0, t
	}
	group := append([]int32(nil), parent.group...)
	return p.registerComm(getI32(bb), group, parent.myRank), nil
}

func putI32(b []byte, v int32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getI32(b []byte) int32 {
	return int32(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
}
