package mpi

import (
	"mpifault/internal/abi"
	"mpifault/internal/vm"
)

// Request is a nonblocking operation handle (MPI_Request).  Blocking
// Send/Recv are implemented as start + wait on a request, so every
// message — blocking or not, user or collective-internal — flows through
// one progress engine.
type Request struct {
	id   int32
	send bool
	done bool

	// Receive state.
	buf    uint32
	limit  uint32 // buffer capacity in bytes
	dtype  int32
	src    int32 // world rank or AnySource
	tag    int32
	ctx    int32 // resolved communicator context
	status uint32

	rdvActive bool
	rdvSeq    uint32

	// hostMode receives deliver into hostPayload instead of guest memory
	// (collective-internal transfers).
	hostMode    bool
	hostPayload []byte

	// ci translates world ranks back to communicator ranks for status
	// write-back; nil for internal transfers.
	ci *commInfo

	resSrc int32
	resTag int32
	resLen uint32

	// Send state (rendezvous in flight, waiting for CTS).
	payload []byte
	dst     int32
	seq     uint32
}

// newRequest registers a request and returns it.
func (p *Proc) newRequest(send bool) *Request {
	p.nextReq++
	r := &Request{id: p.nextReq, send: send}
	p.requests[r.id] = r
	return r
}

// lookupRequest resolves a guest request handle.
func (p *Proc) lookupRequest(id int32) (*Request, bool) {
	r, ok := p.requests[id]
	return r, ok
}

// releaseRequest frees a completed handle (MPI_Wait semantics).
func (p *Proc) releaseRequest(r *Request) {
	delete(p.requests, r.id)
}

func removeReq(list []*Request, r *Request) []*Request {
	for i, q := range list {
		if q == r {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// startRecv posts a user receive of source (a rank in ci, or AnySource)
// into guest memory.  ci translates the source a status reports.
func (p *Proc) startRecv(m *vm.Machine, ci *commInfo, buf, limit uint32, dtype, source, tag int32, status uint32) (*Request, *vm.Trap) {
	r := p.newRequest(false)
	r.buf, r.limit, r.dtype, r.status, r.ci = buf, limit, dtype, status, ci
	r.src, r.tag, r.ctx = worldSource(ci, source), tag, ci.ctx
	if r.src == abi.AnySource {
		if _, t := p.TapeOutput(m, TapeAny, 0, nil); t != nil {
			return nil, t
		}
	}
	return r, p.post(r, m)
}

// post serves every receive.  It claims a matching parked packet (the
// unexpected queue): an eager one completes r, an RTS grants the
// rendezvous.  Otherwise, or after the grant, r pends for the dispatcher
// to complete as packets arrive.
func (p *Proc) post(r *Request, m *vm.Machine) *vm.Trap {
	if i := p.findStored(matchEnvelope(r.src, r.tag, r.ctx)); i >= 0 {
		pkt, payload, t := p.takeStored(i, m)
		if t != nil {
			return t
		}
		if pkt.Kind != KindRTS {
			return p.completeRecv(r, pkt, payload, m)
		}
		if t := p.grantRendezvous(r, pkt, m); t != nil {
			return t
		}
	}
	p.pendingRecvs = append(p.pendingRecvs, r)
	return nil
}

// grantRendezvous answers a matched RTS with a CTS and arms the request
// for the specific data packet.
func (p *Proc) grantRendezvous(r *Request, rts *Packet, m *vm.Machine) *vm.Trap {
	cts := &Packet{Kind: KindCTS, Src: int32(p.rank), Dst: rts.Src,
		Comm: rts.Comm, Seq: rts.Seq}
	if t := p.sendPacket(cts, m); t != nil {
		return t
	}
	r.rdvActive = true
	r.rdvSeq = rts.Seq
	return nil
}

// completeRecv finishes a receive request: truncation check, buffer copy
// and status write-back.
func (p *Proc) completeRecv(r *Request, pkt *Packet, payload []byte, m *vm.Machine) *vm.Trap {
	r.resSrc, r.resTag, r.resLen = pkt.Src, pkt.Tag, uint32(len(payload))
	r.done = true
	if r.hostMode {
		r.hostPayload = append([]byte(nil), payload...)
		return nil
	}
	if uint32(len(payload)) > r.limit {
		return &vm.Trap{Kind: vm.TrapMPIFatal, PC: m.PC,
			Msg: "message truncated"}
	}
	if len(payload) > 0 {
		if t := m.WriteBytes(r.buf, payload); t != nil {
			return t
		}
	}
	if r.status != 0 {
		return p.writeStatus(r, r.status, m)
	}
	return nil
}

// writeStatus stores {source, tag, count} at addr, translating the world
// source rank into the receive's communicator.
func (p *Proc) writeStatus(r *Request, addr uint32, m *vm.Machine) *vm.Trap {
	src := r.resSrc
	if r.ci != nil {
		src = r.ci.commRankOf(r.resSrc)
	}
	ds := abi.DTSize(r.dtype)
	if ds == 0 {
		ds = 1
	}
	if t := m.Store32(addr, uint32(src)); t != nil {
		return t
	}
	if t := m.Store32(addr+4, uint32(r.resTag)); t != nil {
		return t
	}
	return m.Store32(addr+8, r.resLen/ds)
}

// startSend begins a send.  Eager messages (and all self-sends, which
// must not rendezvous against ourselves) complete immediately;
// rendezvous sends post an RTS and wait for the CTS in the dispatcher.
func (p *Proc) startSend(m *vm.Machine, payload []byte, dst, tag, ctx, dtype int32) (*Request, *vm.Trap) {
	r := p.newRequest(true)
	if uint32(len(payload)) <= p.w.cfg.EagerThreshold || int(dst) == p.rank {
		pkt := &Packet{Kind: KindEager, Src: int32(p.rank), Dst: dst,
			Tag: tag, Comm: ctx, Dtype: dtype, Payload: payload}
		if int(dst) == p.rank {
			// Loop back through our own unexpected queue (or a posted
			// receive) without touching the Channel.
			if consumed, t := p.dispatch(pkt, m); t != nil {
				return nil, t
			} else if !consumed {
				if t := p.park(pkt, m); t != nil {
					return nil, t
				}
			}
		} else if t := p.sendPacket(pkt, m); t != nil {
			return nil, t
		}
		r.done = true
		return r, nil
	}

	p.nextSeq++
	r.seq = p.nextSeq<<8 | uint32(p.rank&0xFF)
	r.payload, r.dst, r.tag, r.ctx, r.dtype = payload, dst, tag, ctx, dtype
	rts := &Packet{Kind: KindRTS, Src: int32(p.rank), Dst: dst,
		Tag: tag, Comm: ctx, Seq: r.seq, Dtype: dtype,
		Len: uint32(len(payload))}
	if t := p.sendPacket(rts, m); t != nil {
		return nil, t
	}
	// The CTS may already be parked if another operation pulled it.
	if i := p.findStored(func(q *Packet) bool { return q.Kind == KindCTS && q.Seq == r.seq }); i >= 0 {
		if _, _, t := p.takeStored(i, m); t != nil {
			return nil, t
		}
		return r, p.finishRendezvousSend(r, m)
	}
	p.pendingSends = append(p.pendingSends, r)
	return r, nil
}

// finishRendezvousSend ships the data packet after the CTS arrived.
func (p *Proc) finishRendezvousSend(r *Request, m *vm.Machine) *vm.Trap {
	pkt := &Packet{Kind: KindRdvData, Src: int32(p.rank), Dst: r.dst,
		Tag: r.tag, Comm: r.ctx, Seq: r.seq, Dtype: r.dtype,
		Payload: r.payload}
	if t := p.sendPacket(pkt, m); t != nil {
		return t
	}
	r.payload = nil
	r.done = true
	return nil
}

// dispatch routes an incoming packet to the pending requests.  It
// returns true if the packet was consumed.
func (p *Proc) dispatch(pkt *Packet, m *vm.Machine) (bool, *vm.Trap) {
	switch pkt.Kind {
	case KindCTS:
		for _, r := range p.pendingSends {
			if r.seq == pkt.Seq {
				p.pendingSends = removeReq(p.pendingSends, r)
				return true, p.finishRendezvousSend(r, m)
			}
		}
		return false, nil

	case KindRdvData:
		for _, r := range p.pendingRecvs {
			if r.rdvActive && r.rdvSeq == pkt.Seq {
				p.pendingRecvs = removeReq(p.pendingRecvs, r)
				return true, p.completeRecv(r, pkt, pkt.Payload, m)
			}
		}
		return false, nil

	case KindEager:
		for _, r := range p.pendingRecvs {
			if r.rdvActive {
				continue
			}
			if matchEnvelope(r.src, r.tag, r.ctx)(pkt) {
				p.pendingRecvs = removeReq(p.pendingRecvs, r)
				return true, p.completeRecv(r, pkt, pkt.Payload, m)
			}
		}
		return false, nil

	case KindRTS:
		for _, r := range p.pendingRecvs {
			if r.rdvActive {
				continue
			}
			if matchEnvelope(r.src, r.tag, r.ctx)(pkt) {
				return true, p.grantRendezvous(r, pkt, m)
			}
		}
		return false, nil
	}
	return false, nil
}

// progressUntil drives the engine until every request is done: it pulls
// packets, dispatches them to pending requests and parks the rest.
func (p *Proc) progressUntil(m *vm.Machine, reqs ...*Request) *vm.Trap {
	for _, r := range reqs {
		for !r.done {
			// Whose packet completes r: a receive's source (AnySource when
			// it names none), a rendezvous send's destination, for the CTS.
			if p.awaits = r.src; r.send {
				p.awaits = r.dst
			}
			pkt, t := p.pull(m)
			if t != nil {
				return t
			}
			consumed, t := p.dispatch(pkt, m)
			if t != nil {
				return t
			}
			if !consumed {
				if t := p.park(pkt, m); t != nil {
					return t
				}
			}
		}
	}
	return nil
}

// wait blocks until the request completes, then releases it.
func (p *Proc) wait(r *Request, m *vm.Machine) *vm.Trap {
	if t := p.progressUntil(m, r); t != nil {
		return t
	}
	p.releaseRequest(r)
	return nil
}
