package mpi

import (
	"encoding/binary"
	"math"

	"mpifault/internal/abi"
	"mpifault/internal/vm"
)

// internalCtx maps a communicator's wire context to the hidden context
// its collective traffic travels in (the analogue of MPICH context ids).
func internalCtx(ctx int32) int32 { return ctx + 0x10000 }

// barrier runs the dissemination barrier over the communicator:
// ceil(log2(size)) rounds of header-only control tokens.  This is the
// dominant source of control traffic for barrier-heavy codes like CAM
// (Table 1: 63 % headers).
func (p *Proc) barrier(ci *commInfo, m *vm.Machine) *vm.Trap {
	size := int(ci.size())
	me := int(ci.myRank)
	ctx := internalCtx(ci.ctx)
	p.barrierEpoch++
	epoch := p.barrierEpoch
	for k, round := 1, int32(0); k < size; k, round = k<<1, round+1 {
		to := ci.world(int32((me + k) % size))
		from := ci.world(int32((me - k + size*2) % size))
		tok := &Packet{Kind: KindBarrier, Src: int32(p.rank), Dst: to,
			Tag: sysTag(collBarrier, round), Comm: ctx, Seq: epoch}
		if t := p.sendPacket(tok, m); t != nil {
			return t
		}
		match := func(q *Packet) bool {
			return q.Kind == KindBarrier && q.Src == from &&
				q.Tag == sysTag(collBarrier, round) &&
				q.Comm == ctx && q.Seq == epoch
		}
		if i := p.findStored(match); i >= 0 {
			p.need(p.unexpected[i].at)
			if _, _, t := p.takeStored(i, m); t != nil {
				return t
			}
			continue
		}
		p.awaits = from
		if _, t := p.waitMatch(match, m); t != nil {
			return t
		}
	}
	return nil
}

// bcastHost distributes payload (authoritative only at the root, comm
// rank 0) down a binomial tree and returns the n bytes every rank ends up
// with; a shorter message is a fatal library error.  Root selection is
// folded in by rotating the group; see bcast.
func (p *Proc) bcastHost(payload []byte, n uint32, ci *commInfo, m *vm.Machine) ([]byte, *vm.Trap) {
	b, t := p.bcast(payload, n, 0, ci, m)
	if t == nil && uint32(len(b)) != n {
		return nil, &vm.Trap{Kind: vm.TrapMPIFatal, PC: m.PC, Msg: "bcast: message shorter than buffer"}
	}
	return b, t
}

// bcast distributes payload (authoritative only at comm rank root) down
// a binomial tree.
func (p *Proc) bcast(payload []byte, n uint32, root int32, ci *commInfo, m *vm.Machine) ([]byte, *vm.Trap) {
	size := int(ci.size())
	if size == 1 {
		return payload, nil
	}
	ctx := internalCtx(ci.ctx)
	vrank := (int(ci.myRank) - int(root) + size) % size
	tag := sysTag(collBcast, 0)

	mask := 1
	for mask < size {
		if vrank&mask != 0 {
			src := ci.world(int32((vrank - mask + int(root)) % size))
			res, t := p.recvBytes(src, tag, ctx, m)
			if t != nil {
				return nil, t
			}
			if uint32(len(res.payload)) > n {
				return nil, &vm.Trap{Kind: vm.TrapMPIFatal, PC: m.PC,
					Msg: "bcast: message longer than buffer"}
			}
			payload = res.payload
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vrank+mask < size {
			dst := ci.world(int32((vrank + mask + int(root)) % size))
			if t := p.sendBytes(dst, tag, ctx, abi.DTByte, payload, m); t != nil {
				return nil, t
			}
		}
		mask >>= 1
	}
	return payload, nil
}

// reduce combines each rank's payload with op up a binomial tree; the
// fully reduced payload is returned at comm rank root (nil elsewhere).
func (p *Proc) reduce(payload []byte, dtype, op, root int32, ci *commInfo, m *vm.Machine) ([]byte, *vm.Trap) {
	size := int(ci.size())
	acc := append([]byte(nil), payload...)
	if size == 1 {
		return acc, nil
	}
	ctx := internalCtx(ci.ctx)
	vrank := (int(ci.myRank) - int(root) + size) % size
	tag := sysTag(collReduce, 0)

	for mask := 1; mask < size; mask <<= 1 {
		if vrank&mask == 0 {
			peer := vrank | mask
			if peer < size {
				src := ci.world(int32((peer + int(root)) % size))
				res, t := p.recvBytes(src, tag, ctx, m)
				if t != nil {
					return nil, t
				}
				var err *vm.Trap
				acc, err = combine(acc, res.payload, dtype, op, m)
				if err != nil {
					return nil, err
				}
			}
		} else {
			parent := ci.world(int32((vrank&^mask + int(root)) % size))
			if t := p.sendBytes(parent, tag, ctx, dtype, acc, m); t != nil {
				return nil, t
			}
			return nil, nil
		}
	}
	return acc, nil
}

// combine applies the reduction op elementwise: out[i] = op(a[i], b[i]).
// A length mismatch means a peer contributed the wrong count — MPICH
// treats that as an internal error.
func combine(a, b []byte, dtype, op int32, m *vm.Machine) ([]byte, *vm.Trap) {
	if len(a) != len(b) {
		return nil, &vm.Trap{Kind: vm.TrapMPIFatal, PC: m.PC,
			Msg: "reduce: contribution length mismatch"}
	}
	le := binary.LittleEndian
	switch dtype {
	case abi.DTInt32:
		for i := 0; i+4 <= len(a); i += 4 {
			x, y := int32(le.Uint32(a[i:])), int32(le.Uint32(b[i:]))
			le.PutUint32(a[i:], uint32(reduceI32(x, y, op)))
		}
	case abi.DTF64:
		for i := 0; i+8 <= len(a); i += 8 {
			x := math.Float64frombits(le.Uint64(a[i:]))
			y := math.Float64frombits(le.Uint64(b[i:]))
			le.PutUint64(a[i:], math.Float64bits(reduceF64(x, y, op)))
		}
	default: // DTByte reduces as unsigned bytes
		for i := range a {
			a[i] = byte(reduceI32(int32(a[i]), int32(b[i]), op))
		}
	}
	return a, nil
}

func reduceI32(x, y, op int32) int32 {
	switch op {
	case abi.OpProd:
		return x * y
	case abi.OpMin:
		if y < x {
			return y
		}
		return x
	case abi.OpMax:
		if y > x {
			return y
		}
		return x
	default:
		return x + y
	}
}

func reduceF64(x, y float64, op int32) float64 {
	switch op {
	case abi.OpProd:
		return x * y
	case abi.OpMin:
		return math.Min(x, y)
	case abi.OpMax:
		return math.Max(x, y)
	default:
		return x + y
	}
}

// gatherHost collects each rank's payload at comm rank 0 in rank order.
func (p *Proc) gatherHost(payload []byte, ci *commInfo, m *vm.Machine) ([]byte, *vm.Trap) {
	return p.gather(payload, 0, ci, abi.DTByte, m)
}

// gather collects each rank's payload at comm rank root, concatenated in
// comm-rank order; non-root ranks return nil.
func (p *Proc) gather(payload []byte, root int32, ci *commInfo, dtype int32, m *vm.Machine) ([]byte, *vm.Trap) {
	size := int(ci.size())
	if size == 1 {
		return append([]byte(nil), payload...), nil
	}
	ctx := internalCtx(ci.ctx)
	tag := sysTag(collGather, 0)
	if ci.myRank != root {
		return nil, p.sendBytes(ci.world(root), tag, ctx, dtype, payload, m)
	}
	out := make([]byte, 0, len(payload)*size)
	for r := int32(0); r < int32(size); r++ {
		if r == root {
			out = append(out, payload...)
			continue
		}
		res, t := p.recvBytes(ci.world(r), tag, ctx, m)
		if t != nil {
			return nil, t
		}
		if len(res.payload) != len(payload) {
			return nil, &vm.Trap{Kind: vm.TrapMPIFatal, PC: m.PC,
				Msg: "gather: contribution length mismatch"}
		}
		out = append(out, res.payload...)
	}
	return out, nil
}

// scatter hands slice r of root's payload to comm rank r and returns
// this rank's slice.
func (p *Proc) scatter(payload []byte, chunk uint32, root int32, ci *commInfo, dtype int32, m *vm.Machine) ([]byte, *vm.Trap) {
	size := int(ci.size())
	ctx := internalCtx(ci.ctx)
	tag := sysTag(collScatter, 0)
	if ci.myRank == root {
		var mine []byte
		for r := int32(0); r < int32(size); r++ {
			lo := uint32(r) * chunk
			if lo+chunk > uint32(len(payload)) {
				return nil, &vm.Trap{Kind: vm.TrapMPIFatal, PC: m.PC,
					Msg: "scatter: send buffer too small"}
			}
			piece := payload[lo : lo+chunk]
			if r == root {
				mine = append([]byte(nil), piece...)
				continue
			}
			if t := p.sendBytes(ci.world(r), tag, ctx, dtype, piece, m); t != nil {
				return nil, t
			}
		}
		return mine, nil
	}
	res, t := p.recvBytes(ci.world(root), tag, ctx, m)
	if t != nil {
		return nil, t
	}
	return res.payload, nil
}

// alltoall exchanges slice j of every rank's payload with comm rank j.
// Peers are visited in increasing round distance; within a round the
// lower-ranked side sends first, which keeps the rendezvous protocol
// deadlock-free.
func (p *Proc) alltoall(payload []byte, chunk uint32, ci *commInfo, dtype int32, m *vm.Machine) ([]byte, *vm.Trap) {
	size := int(ci.size())
	me := int(ci.myRank)
	ctx := internalCtx(ci.ctx)
	tag := sysTag(collAlltoall, 0)
	if uint32(len(payload)) < chunk*uint32(size) {
		return nil, &vm.Trap{Kind: vm.TrapMPIFatal, PC: m.PC,
			Msg: "alltoall: send buffer too small"}
	}
	out := make([]byte, chunk*uint32(size))
	copy(out[uint32(me)*chunk:], payload[uint32(me)*chunk:uint32(me+1)*chunk])
	for d := 1; d < size; d++ {
		to := (me + d) % size
		from := (me - d + size) % size
		sendPiece := payload[uint32(to)*chunk : uint32(to+1)*chunk]
		doSend := func() *vm.Trap {
			return p.sendBytes(ci.world(int32(to)), tag, ctx, dtype, sendPiece, m)
		}
		doRecv := func() *vm.Trap {
			res, t := p.recvBytes(ci.world(int32(from)), tag, ctx, m)
			if t != nil {
				return t
			}
			if uint32(len(res.payload)) != chunk {
				return &vm.Trap{Kind: vm.TrapMPIFatal, PC: m.PC,
					Msg: "alltoall: chunk length mismatch"}
			}
			copy(out[uint32(from)*chunk:], res.payload)
			return nil
		}
		if me < to {
			if t := doSend(); t != nil {
				return nil, t
			}
			if t := doRecv(); t != nil {
				return nil, t
			}
		} else {
			if t := doRecv(); t != nil {
				return nil, t
			}
			if t := doSend(); t != nil {
				return nil, t
			}
		}
	}
	return out, nil
}
