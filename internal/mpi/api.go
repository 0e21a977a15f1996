package mpi

import (
	"fmt"

	"mpifault/internal/abi"
	"mpifault/internal/vm"
)

// This file is the API layer: argument validation, error-handler
// dispatch, communicator resolution, and guest-memory marshalling for
// every MPI operation the guest library exposes.
//
// Error semantics follow what §6.2 of the paper found in MPICH, LAM/MPI
// and LA-MPI: a user-registered error handler is raised *only* when an
// argument check fails (e.g. a nonexistent destination rank, which is how
// stack faults that corrupt call arguments become "MPI Detected").  Every
// other failure — protocol corruption, abnormal peer termination — aborts
// the job the way MPICH's signal/error handling does, which the harness
// classifies as a Crash.

// apiError reports an argument-check failure.  With a registered handler
// the run is labelled MPI-Detected (TrapMPIHandler); otherwise MPICH's
// default MPI_ERRORS_ARE_FATAL aborts the job (TrapMPIFatal).
func (p *Proc) apiError(m *vm.Machine, class int32, format string, args ...interface{}) *vm.Trap {
	msg := fmt.Sprintf("%s: %s", abi.ErrName(class), fmt.Sprintf(format, args...))
	kind := vm.TrapMPIFatal
	if p.errhandler != 0 {
		kind = vm.TrapMPIHandler
	}
	return &vm.Trap{Kind: kind, PC: m.PC, Code: class, Msg: msg}
}

func (p *Proc) checkCountType(m *vm.Machine, count, dtype int32) *vm.Trap {
	if count < 0 {
		return p.apiError(m, abi.ErrCount, "negative count %d", count)
	}
	if abi.DTSize(dtype) == 0 {
		return p.apiError(m, abi.ErrType, "invalid datatype %d", dtype)
	}
	return nil
}

func (p *Proc) checkInited(m *vm.Machine) *vm.Trap {
	if !p.inited || p.finalized {
		return p.apiError(m, abi.ErrOther, "MPI not initialized")
	}
	return nil
}

// checkSendRank validates a destination within the communicator.
func (p *Proc) checkSendRank(m *vm.Machine, ci *commInfo, dest int32) *vm.Trap {
	if dest < 0 || dest >= ci.size() {
		// The canonical §6.2 case: a corrupted stack argument produces a
		// nonexistent destination, the one error MPICH raises handlers for.
		return p.apiError(m, abi.ErrRank, "invalid destination rank %d", dest)
	}
	return nil
}

func (p *Proc) checkRecvRank(m *vm.Machine, ci *commInfo, source int32) *vm.Trap {
	if source != abi.AnySource && (source < 0 || source >= ci.size()) {
		return p.apiError(m, abi.ErrRank, "invalid source rank %d", source)
	}
	return nil
}

func (p *Proc) checkUserTag(m *vm.Machine, tag int32, wildcardOK bool) *vm.Trap {
	if wildcardOK && tag == abi.AnyTag {
		return nil
	}
	if tag < 0 || tag > abi.MaxUserTag {
		return p.apiError(m, abi.ErrTag, "invalid tag %d", tag)
	}
	return nil
}

// Init implements MPI_Init.
func (p *Proc) Init(m *vm.Machine) *vm.Trap {
	if p.inited {
		return p.apiError(m, abi.ErrOther, "MPI_Init called twice")
	}
	p.inited = true
	return nil
}

// Finalize implements MPI_Finalize.
func (p *Proc) Finalize(m *vm.Machine) *vm.Trap {
	if t := p.checkInited(m); t != nil {
		return t
	}
	// MPI_Finalize is synchronizing in MPICH's ch_p4; keep that behaviour
	// so stragglers' messages cannot arrive after a peer exits.
	ci := p.comms[abi.CommWorld]
	if ci.size() > 1 {
		if t := p.barrier(ci, m); t != nil {
			return t
		}
	}
	p.finalized = true
	return nil
}

// CommRank implements MPI_Comm_rank.
func (p *Proc) CommRank(m *vm.Machine, comm int32) (int32, *vm.Trap) {
	if t := p.checkInited(m); t != nil {
		return 0, t
	}
	ci, t := p.resolveComm(m, comm)
	if t != nil {
		return 0, t
	}
	return ci.myRank, nil
}

// CommSize implements MPI_Comm_size.
func (p *Proc) CommSize(m *vm.Machine, comm int32) (int32, *vm.Trap) {
	if t := p.checkInited(m); t != nil {
		return 0, t
	}
	ci, t := p.resolveComm(m, comm)
	if t != nil {
		return 0, t
	}
	return ci.size(), nil
}

// ErrhandlerSet implements MPI_Errhandler_set: handler is the guest
// address of the user callback.  As in the paper, invoking the handler
// labels the run "MPI Detected".
func (p *Proc) ErrhandlerSet(m *vm.Machine, comm int32, handler uint32) *vm.Trap {
	if _, t := p.resolveComm(m, comm); t != nil {
		return t
	}
	p.errhandler = handler
	return nil
}

// CommSplit implements MPI_Comm_split, returning the new handle (0 for
// MPI_UNDEFINED colors).
func (p *Proc) CommSplit(m *vm.Machine, comm, color, key int32) (int32, *vm.Trap) {
	if t := p.checkInited(m); t != nil {
		return 0, t
	}
	ci, t := p.resolveComm(m, comm)
	if t != nil {
		return 0, t
	}
	return p.commSplit(ci, color, key, m)
}

// CommDup implements MPI_Comm_dup.
func (p *Proc) CommDup(m *vm.Machine, comm int32) (int32, *vm.Trap) {
	if t := p.checkInited(m); t != nil {
		return 0, t
	}
	ci, t := p.resolveComm(m, comm)
	if t != nil {
		return 0, t
	}
	return p.commDup(ci, m)
}

// sendChecks validates the common send arguments and returns the
// communicator and payload.
func (p *Proc) sendChecks(m *vm.Machine, buf uint32, count, dtype, dest, tag, comm int32) (*commInfo, []byte, *vm.Trap) {
	if t := p.checkInited(m); t != nil {
		return nil, nil, t
	}
	ci, t := p.resolveComm(m, comm)
	if t != nil {
		return nil, nil, t
	}
	if t := p.checkCountType(m, count, dtype); t != nil {
		return nil, nil, t
	}
	if t := p.checkSendRank(m, ci, dest); t != nil {
		return nil, nil, t
	}
	if t := p.checkUserTag(m, tag, false); t != nil {
		return nil, nil, t
	}
	n := uint32(count) * abi.DTSize(dtype)
	payload, tr := m.ReadBytes(buf, int(n))
	if tr != nil {
		return nil, nil, tr // bad buffer pointer: the process segfaults (Crash)
	}
	return ci, payload, nil
}

// Send implements MPI_Send.
func (p *Proc) Send(m *vm.Machine, buf uint32, count, dtype, dest, tag, comm int32) *vm.Trap {
	ci, payload, t := p.sendChecks(m, buf, count, dtype, dest, tag, comm)
	if t != nil {
		return t
	}
	p.recordComm(CommOp{Fn: "MPI_Send", Send: true, Peer: ci.world(dest), Tag: tag,
		Bytes: uint32(len(payload)), Blocking: true})
	return p.sendBytes(ci.world(dest), tag, ci.ctx, dtype, payload, m)
}

// Isend implements MPI_Isend; the request handle is returned.
func (p *Proc) Isend(m *vm.Machine, buf uint32, count, dtype, dest, tag, comm int32) (int32, *vm.Trap) {
	ci, payload, t := p.sendChecks(m, buf, count, dtype, dest, tag, comm)
	if t != nil {
		return 0, t
	}
	p.recordComm(CommOp{Fn: "MPI_Isend", Send: true, Peer: ci.world(dest), Tag: tag,
		Bytes: uint32(len(payload))})
	r, t := p.startSend(m, payload, ci.world(dest), tag, ci.ctx, dtype)
	if t != nil {
		return 0, t
	}
	return r.id, nil
}

// recvChecks validates the common receive arguments.
func (p *Proc) recvChecks(m *vm.Machine, count, dtype, source, tag, comm int32) (*commInfo, *vm.Trap) {
	if t := p.checkInited(m); t != nil {
		return nil, t
	}
	ci, t := p.resolveComm(m, comm)
	if t != nil {
		return nil, t
	}
	if t := p.checkCountType(m, count, dtype); t != nil {
		return nil, t
	}
	if t := p.checkRecvRank(m, ci, source); t != nil {
		return nil, t
	}
	if t := p.checkUserTag(m, tag, true); t != nil {
		return nil, t
	}
	return ci, nil
}

// CommOp records one point-to-point operation observed at the API
// layer, in world-rank terms.  The static MPI lint matches the sends
// and receives of a clean run against each other; wildcard receives
// keep abi.AnySource/abi.AnyTag in Peer/Tag.
type CommOp struct {
	Rank     int    // world rank issuing the operation
	Fn       string // MPI function name, e.g. "MPI_Send"
	Send     bool   // send half (false: receive half)
	Peer     int32  // world destination/source; abi.AnySource on wildcard receives
	Tag      int32  // abi.AnyTag on wildcard receives
	Bytes    uint32 // payload bytes sent, or the receive buffer limit
	Blocking bool   // the call cannot return before a partner shows up
}

func (p *Proc) recordComm(op CommOp) {
	if p.CommHook != nil {
		op.Rank = p.rank
		p.CommHook(op)
	}
}

// worldSource maps a communicator source (or AnySource) to world terms.
func worldSource(ci *commInfo, source int32) int32 {
	if source == abi.AnySource {
		return abi.AnySource
	}
	return ci.world(source)
}

// Recv implements MPI_Recv.  status, when nonzero, receives
// {source, tag, count} as three 32-bit words.
func (p *Proc) Recv(m *vm.Machine, buf uint32, count, dtype, source, tag, comm int32, status uint32) *vm.Trap {
	ci, t := p.recvChecks(m, count, dtype, source, tag, comm)
	if t != nil {
		return t
	}
	limit := uint32(count) * abi.DTSize(dtype)
	p.recordComm(CommOp{Fn: "MPI_Recv", Peer: worldSource(ci, source), Tag: tag,
		Bytes: limit, Blocking: true})
	r, t := p.startRecv(m, buf, limit, dtype, worldSource(ci, source), tag, ci.ctx, status)
	if t != nil {
		return t
	}
	r.ci = ci
	if r.done && status != 0 {
		// Completed from the unexpected queue before ci was attached;
		// rewrite the status with communicator-rank translation.
		if t := p.writeStatus(r, status, m); t != nil {
			return t
		}
	}
	return p.wait(r, m)
}

// Irecv implements MPI_Irecv; the request handle is returned.
func (p *Proc) Irecv(m *vm.Machine, buf uint32, count, dtype, source, tag, comm int32) (int32, *vm.Trap) {
	ci, t := p.recvChecks(m, count, dtype, source, tag, comm)
	if t != nil {
		return 0, t
	}
	limit := uint32(count) * abi.DTSize(dtype)
	p.recordComm(CommOp{Fn: "MPI_Irecv", Peer: worldSource(ci, source), Tag: tag,
		Bytes: limit})
	r, t := p.startRecv(m, buf, limit, dtype, worldSource(ci, source), tag, ci.ctx, 0)
	if t != nil {
		return 0, t
	}
	r.ci = ci
	return r.id, nil
}

// Wait implements MPI_Wait on a request handle.
func (p *Proc) Wait(m *vm.Machine, reqID int32, status uint32) *vm.Trap {
	if t := p.checkInited(m); t != nil {
		return t
	}
	r, ok := p.lookupRequest(reqID)
	if !ok {
		return p.apiError(m, abi.ErrArg, "invalid request handle %d", reqID)
	}
	if t := p.progressUntil(m, r); t != nil {
		return t
	}
	if !r.send && status != 0 {
		if t := p.writeStatus(r, status, m); t != nil {
			return t
		}
	}
	p.releaseRequest(r)
	return nil
}

// Waitall implements MPI_Waitall: reqArray holds count handles; statuses
// (when nonzero) is an array of count 12-byte status blocks.
func (p *Proc) Waitall(m *vm.Machine, count int32, reqArray, statuses uint32) *vm.Trap {
	if t := p.checkInited(m); t != nil {
		return t
	}
	if count < 0 {
		return p.apiError(m, abi.ErrCount, "negative request count %d", count)
	}
	for i := int32(0); i < count; i++ {
		id, t := m.Load32(reqArray + uint32(4*i))
		if t != nil {
			return t
		}
		var status uint32
		if statuses != 0 {
			status = statuses + uint32(12*i)
		}
		if t := p.Wait(m, int32(id), status); t != nil {
			return t
		}
	}
	return nil
}

// Sendrecv implements MPI_Sendrecv: a posted receive overlapping a
// blocking send — the deadlock-free halo-exchange primitive.
func (p *Proc) Sendrecv(m *vm.Machine, sbuf uint32, scount, dtype, dest, stag int32,
	rbuf uint32, rcount, source, rtag, comm int32, status uint32) *vm.Trap {
	ci, payload, t := p.sendChecks(m, sbuf, scount, dtype, dest, stag, comm)
	if t != nil {
		return t
	}
	if t := p.checkRecvRank(m, ci, source); t != nil {
		return t
	}
	if t := p.checkUserTag(m, rtag, true); t != nil {
		return t
	}
	if rcount < 0 {
		return p.apiError(m, abi.ErrCount, "negative receive count %d", rcount)
	}
	limit := uint32(rcount) * abi.DTSize(dtype)
	// Both halves are posted before either blocks, so neither half can
	// be the sole cause of a wait-for edge; record them non-blocking.
	p.recordComm(CommOp{Fn: "MPI_Sendrecv", Send: true, Peer: ci.world(dest), Tag: stag,
		Bytes: uint32(len(payload))})
	p.recordComm(CommOp{Fn: "MPI_Sendrecv", Peer: worldSource(ci, source), Tag: rtag,
		Bytes: limit})
	rr, t := p.startRecv(m, rbuf, limit, dtype, worldSource(ci, source), rtag, ci.ctx, 0)
	if t != nil {
		return t
	}
	rr.ci = ci
	sr, t := p.startSend(m, payload, ci.world(dest), stag, ci.ctx, dtype)
	if t != nil {
		return t
	}
	if t := p.progressUntil(m, rr, sr); t != nil {
		return t
	}
	if status != 0 {
		if t := p.writeStatus(rr, status, m); t != nil {
			return t
		}
	}
	p.releaseRequest(rr)
	p.releaseRequest(sr)
	return nil
}

// Barrier implements MPI_Barrier.
func (p *Proc) Barrier(m *vm.Machine, comm int32) *vm.Trap {
	if t := p.checkInited(m); t != nil {
		return t
	}
	ci, t := p.resolveComm(m, comm)
	if t != nil {
		return t
	}
	if ci.size() == 1 {
		return nil
	}
	return p.barrier(ci, m)
}

// Bcast implements MPI_Bcast.
func (p *Proc) Bcast(m *vm.Machine, buf uint32, count, dtype, root, comm int32) *vm.Trap {
	ci, t := p.commonCollChecks(m, count, dtype, root, comm)
	if t != nil {
		return t
	}
	n := uint32(count) * abi.DTSize(dtype)
	var payload []byte
	if ci.myRank == root {
		b, t := m.ReadBytes(buf, int(n))
		if t != nil {
			return t
		}
		payload = b
	}
	if ci.size() == 1 {
		return nil
	}
	out, t := p.bcast(payload, n, root, ci, m)
	if t != nil {
		return t
	}
	if ci.myRank != root {
		return m.WriteBytes(buf, out)
	}
	return nil
}

// Reduce implements MPI_Reduce.
func (p *Proc) Reduce(m *vm.Machine, sbuf, rbuf uint32, count, dtype, op, root, comm int32) *vm.Trap {
	ci, t := p.commonCollChecks(m, count, dtype, root, comm)
	if t != nil {
		return t
	}
	if op < 0 || op >= abi.NumOps {
		return p.apiError(m, abi.ErrOp, "invalid reduction op %d", op)
	}
	n := uint32(count) * abi.DTSize(dtype)
	payload, tr := m.ReadBytes(sbuf, int(n))
	if tr != nil {
		return tr
	}
	out, t := p.reduce(payload, dtype, op, root, ci, m)
	if t != nil {
		return t
	}
	if ci.myRank == root {
		return m.WriteBytes(rbuf, out)
	}
	return nil
}

// Allreduce implements MPI_Allreduce as reduce-to-zero plus broadcast.
func (p *Proc) Allreduce(m *vm.Machine, sbuf, rbuf uint32, count, dtype, op, comm int32) *vm.Trap {
	ci, t := p.commonCollChecks(m, count, dtype, 0, comm)
	if t != nil {
		return t
	}
	if op < 0 || op >= abi.NumOps {
		return p.apiError(m, abi.ErrOp, "invalid reduction op %d", op)
	}
	n := uint32(count) * abi.DTSize(dtype)
	payload, tr := m.ReadBytes(sbuf, int(n))
	if tr != nil {
		return tr
	}
	out, t := p.reduce(payload, dtype, op, 0, ci, m)
	if t != nil {
		return t
	}
	full, t := p.bcast(out, n, 0, ci, m)
	if t != nil {
		return t
	}
	return m.WriteBytes(rbuf, full)
}

// Gather implements MPI_Gather (equal send/recv types and counts).
func (p *Proc) Gather(m *vm.Machine, sbuf uint32, count, dtype int32, rbuf uint32, root, comm int32) *vm.Trap {
	ci, t := p.commonCollChecks(m, count, dtype, root, comm)
	if t != nil {
		return t
	}
	n := uint32(count) * abi.DTSize(dtype)
	payload, tr := m.ReadBytes(sbuf, int(n))
	if tr != nil {
		return tr
	}
	out, t := p.gather(payload, root, ci, dtype, m)
	if t != nil {
		return t
	}
	if ci.myRank == root {
		return m.WriteBytes(rbuf, out)
	}
	return nil
}

// Allgather implements MPI_Allgather as gather-to-zero plus broadcast.
func (p *Proc) Allgather(m *vm.Machine, sbuf uint32, count, dtype int32, rbuf uint32, comm int32) *vm.Trap {
	ci, t := p.commonCollChecks(m, count, dtype, 0, comm)
	if t != nil {
		return t
	}
	n := uint32(count) * abi.DTSize(dtype)
	payload, tr := m.ReadBytes(sbuf, int(n))
	if tr != nil {
		return tr
	}
	out, t := p.gather(payload, 0, ci, dtype, m)
	if t != nil {
		return t
	}
	total := n * uint32(ci.size())
	full, t := p.bcast(out, total, 0, ci, m)
	if t != nil {
		return t
	}
	return m.WriteBytes(rbuf, full)
}

// Scatter implements MPI_Scatter (equal send/recv types and counts).
func (p *Proc) Scatter(m *vm.Machine, sbuf uint32, count, dtype int32, rbuf uint32, root, comm int32) *vm.Trap {
	ci, t := p.commonCollChecks(m, count, dtype, root, comm)
	if t != nil {
		return t
	}
	n := uint32(count) * abi.DTSize(dtype)
	var payload []byte
	if ci.myRank == root {
		b, t := m.ReadBytes(sbuf, int(n)*int(ci.size()))
		if t != nil {
			return t
		}
		payload = b
	}
	if ci.size() == 1 {
		return m.WriteBytes(rbuf, payload)
	}
	mine, t := p.scatter(payload, n, root, ci, dtype, m)
	if t != nil {
		return t
	}
	return m.WriteBytes(rbuf, mine)
}

// Alltoall implements MPI_Alltoall (equal send/recv types and counts).
func (p *Proc) Alltoall(m *vm.Machine, sbuf uint32, count, dtype int32, rbuf uint32, comm int32) *vm.Trap {
	ci, t := p.commonCollChecks(m, count, dtype, 0, comm)
	if t != nil {
		return t
	}
	n := uint32(count) * abi.DTSize(dtype)
	payload, tr := m.ReadBytes(sbuf, int(n)*int(ci.size()))
	if tr != nil {
		return tr
	}
	if ci.size() == 1 {
		return m.WriteBytes(rbuf, payload)
	}
	out, t := p.alltoall(payload, n, ci, dtype, m)
	if t != nil {
		return t
	}
	return m.WriteBytes(rbuf, out)
}

func (p *Proc) commonCollChecks(m *vm.Machine, count, dtype, root, comm int32) (*commInfo, *vm.Trap) {
	if t := p.checkInited(m); t != nil {
		return nil, t
	}
	ci, t := p.resolveComm(m, comm)
	if t != nil {
		return nil, t
	}
	if t := p.checkCountType(m, count, dtype); t != nil {
		return nil, t
	}
	if root < 0 || root >= ci.size() {
		return nil, p.apiError(m, abi.ErrRank, "invalid root rank %d", root)
	}
	return ci, nil
}
