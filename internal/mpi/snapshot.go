package mpi

import (
	"reflect"
	"sort"
)

// This file is the MPI half of a rank's snapshot: ProcSnapshot captures
// one rank's complete runtime state (unexpected queue, request table,
// pending operations, communicators, counters, traffic stats) so a later
// job can resume the rank mid-stream.

// storedSnap is a parked unexpected-queue entry in a snapshot.  The
// payload bytes (if any) live in the guest heap and are covered by the VM
// snapshot; only the host-side bookkeeping is recorded here.
type storedSnap struct {
	pkt               Packet // deep copy; Payload owned by the snapshot
	heapAddr, heapLen uint32
}

// reqSnap is one request-table entry in a snapshot, keyed by guest
// handle id.  The communicator pointer is recorded as its handle
// (-1 for internal transfers) and rebound on restore.
type reqSnap struct {
	id                   int32
	send, done           bool
	buf, limit           uint32
	dtype, src, tag, ctx int32
	status               uint32
	rdvActive            bool
	rdvSeq               uint32
	hostMode             bool
	hostPayload          []byte
	commHandle           int32
	resSrc, resTag       int32
	resLen               uint32
	payload              []byte
	dst                  int32
	seq                  uint32
}

// commSnap is one communicator-table entry in a snapshot.
type commSnap struct {
	handle, ctx int32
	group       []int32
	myRank      int32
}

// ProcSnapshot is one rank's complete MPI runtime state at a checkpoint.
type ProcSnapshot struct {
	unexpected   []storedSnap
	requests     []reqSnap // ascending id
	pendingRecvs []int32   // request ids, posting order
	pendingSends []int32
	nextSeq      uint32
	barrierEpoch uint32
	nextReq      int32
	comms        []commSnap // ascending handle
	nextComm     int32
	errhandler   uint32
	inited       bool
	finalized    bool
	stats        Stats
}

func copyPacket(p *Packet) Packet {
	cp := *p
	if p.Payload != nil {
		cp.Payload = append([]byte(nil), p.Payload...)
	}
	return cp
}

// Snapshot captures the rank's runtime state.
func (p *Proc) Snapshot() *ProcSnapshot {
	ps := &ProcSnapshot{
		nextSeq:      p.nextSeq,
		barrierEpoch: p.barrierEpoch,
		nextReq:      p.nextReq,
		nextComm:     p.nextComm,
		errhandler:   p.errhandler,
		inited:       p.inited,
		finalized:    p.finalized,
		stats:        p.Stats,
	}
	for _, s := range p.unexpected {
		ps.unexpected = append(ps.unexpected, storedSnap{
			pkt: copyPacket(s.pkt), heapAddr: s.heapAddr, heapLen: s.heapLen,
		})
	}
	ids := make([]int32, 0, len(p.requests))
	for id := range p.requests {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r := p.requests[id]
		rs := reqSnap{
			id: r.id, send: r.send, done: r.done,
			buf: r.buf, limit: r.limit,
			dtype: r.dtype, src: r.src, tag: r.tag, ctx: r.ctx,
			status:    r.status,
			rdvActive: r.rdvActive, rdvSeq: r.rdvSeq,
			hostMode:   r.hostMode,
			commHandle: -1,
			resSrc:     r.resSrc, resTag: r.resTag, resLen: r.resLen,
			dst: r.dst, seq: r.seq,
		}
		if r.ci != nil {
			rs.commHandle = r.ci.handle
		}
		if r.hostPayload != nil {
			rs.hostPayload = append([]byte(nil), r.hostPayload...)
		}
		if r.payload != nil {
			rs.payload = append([]byte(nil), r.payload...)
		}
		ps.requests = append(ps.requests, rs)
	}
	for _, r := range p.pendingRecvs {
		ps.pendingRecvs = append(ps.pendingRecvs, r.id)
	}
	for _, r := range p.pendingSends {
		ps.pendingSends = append(ps.pendingSends, r.id)
	}
	handles := make([]int32, 0, len(p.comms))
	for h := range p.comms {
		handles = append(handles, h)
	}
	sort.Slice(handles, func(i, j int) bool { return handles[i] < handles[j] })
	for _, h := range handles {
		ci := p.comms[h]
		ps.comms = append(ps.comms, commSnap{
			handle: ci.handle, ctx: ci.ctx,
			group: append([]int32(nil), ci.group...), myRank: ci.myRank,
		})
	}
	return ps
}

// Matches reports whether a replaying rank, still on its tape, stands
// where the recorded rank stood when ps was taken at event pos of that
// tape: the same runtime state, compared in Snapshot's canonical form,
// and the same inputs from here on.
func (p *Proc) Matches(ps *ProcSnapshot, pos int) bool {
	return p.tapeMode == tapeReplay && !p.departed && !p.starved && p.tapePos == pos && reflect.DeepEqual(p.Snapshot(), ps)
}

// Restore rebuilds the rank's runtime state from a snapshot.  Call on a
// freshly constructed world before the rank starts executing.  The
// snapshot itself is never mutated and may restore any number of
// concurrent worlds.
func (p *Proc) Restore(ps *ProcSnapshot) {
	p.nextSeq = ps.nextSeq
	p.barrierEpoch = ps.barrierEpoch
	p.nextReq = ps.nextReq
	p.nextComm = ps.nextComm
	p.errhandler = ps.errhandler
	p.inited = ps.inited
	p.finalized = ps.finalized
	p.Stats = ps.stats

	p.unexpected = nil
	for i := range ps.unexpected {
		sn := &ps.unexpected[i]
		pkt := copyPacket(&sn.pkt)
		p.unexpected = append(p.unexpected, &stored{
			pkt: &pkt, heapAddr: sn.heapAddr, heapLen: sn.heapLen,
		})
	}

	p.comms = make(map[int32]*commInfo, len(ps.comms))
	for _, cs := range ps.comms {
		p.comms[cs.handle] = &commInfo{
			handle: cs.handle, ctx: cs.ctx,
			group: append([]int32(nil), cs.group...), myRank: cs.myRank,
		}
	}

	p.requests = make(map[int32]*Request, len(ps.requests))
	for i := range ps.requests {
		rs := &ps.requests[i]
		r := &Request{
			id: rs.id, send: rs.send, done: rs.done,
			buf: rs.buf, limit: rs.limit,
			dtype: rs.dtype, src: rs.src, tag: rs.tag, ctx: rs.ctx,
			status:    rs.status,
			rdvActive: rs.rdvActive, rdvSeq: rs.rdvSeq,
			hostMode: rs.hostMode,
			resSrc:   rs.resSrc, resTag: rs.resTag, resLen: rs.resLen,
			dst: rs.dst, seq: rs.seq,
		}
		if rs.commHandle >= 0 {
			r.ci = p.comms[rs.commHandle]
		}
		if rs.hostPayload != nil {
			r.hostPayload = append([]byte(nil), rs.hostPayload...)
		}
		if rs.payload != nil {
			r.payload = append([]byte(nil), rs.payload...)
		}
		p.requests[r.id] = r
	}

	p.pendingRecvs = nil
	for _, id := range ps.pendingRecvs {
		p.pendingRecvs = append(p.pendingRecvs, p.requests[id])
	}
	p.pendingSends = nil
	for _, id := range ps.pendingSends {
		p.pendingSends = append(p.pendingSends, p.requests[id])
	}
}
