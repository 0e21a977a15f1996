package mpi

import (
	"mpifault/internal/abi"
	"mpifault/internal/vm"
)

// Config tunes the runtime.
type Config struct {
	// EagerThreshold is the largest payload sent eagerly; larger messages
	// use the RTS/CTS rendezvous protocol.  Default 1024 bytes.
	EagerThreshold uint32
	// QueueDepth is the per-rank Channel queue capacity in packets.
	QueueDepth int
}

func (c *Config) fill() {
	if c.EagerThreshold == 0 {
		c.EagerThreshold = 1024
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4096
	}
}

// World is one MPI job: size ranks and their Channel-level plumbing.  A
// world is single-threaded: its ranks are coroutines (sched.go) of which
// exactly one executes at a time, so nothing here is locked or atomic.
type World struct {
	Size int
	cfg  Config

	procs []*Proc

	// queued counts the packets parked in all Channel queues; queuePeak
	// is its high-water mark.
	queued, queuePeak int

	// ctxCounter allocates wire context ids for new communicators.
	ctxCounter int64
}

// NewWorld creates the runtime for size ranks.
func NewWorld(size int, cfg Config) *World {
	cfg.fill()
	w := &World{Size: size, cfg: cfg}
	for r := 0; r < size; r++ {
		p := &Proc{
			w:        w,
			rank:     r,
			requests: make(map[int32]*Request),
		}
		p.initComms()
		w.procs = append(w.procs, p)
	}
	return w
}

// Proc is the per-rank runtime state.
type Proc struct {
	w    *World
	rank int

	// queue[qhead:] is the rank's Channel queue: raw packets in the order
	// the schedule enqueued them.
	queue [][]byte
	qhead int

	// The rank's coroutine and what it is suspended on (sched.go).
	resume  func() (struct{}, bool)
	cancel  func()
	suspend func(struct{}) bool
	waits   waitKind
	waitDst *Proc
	// awaits is the rank whose packet the blocking call in progress needs
	// next, AnySource when it names none; it means something only while
	// the rank pulls from its queue, and is recorded with each pull.
	awaits int32

	// unexpected holds arrived-but-unmatched packets; payloads of eager
	// data packets are buffered in guest-heap chunks tagged ChunkMPI, as
	// the paper's malloc-wrapper analysis expects.
	unexpected   []*stored
	nextSeq      uint32
	barrierEpoch uint32

	// Nonblocking-operation state: pending receives and rendezvous sends
	// the dispatcher completes as packets arrive, plus the guest-visible
	// request handle table.
	pendingRecvs []*Request
	pendingSends []*Request
	requests     map[int32]*Request
	nextReq      int32

	// Communicator table (handle -> group/context).
	comms    map[int32]*commInfo
	nextComm int32

	// RecvHook, when set, may mutate the raw packet bytes just after the
	// Channel read and before parsing — the message fault injector.
	RecvHook func(pkt []byte)

	// CommHook, when set, observes every point-to-point operation at the
	// API layer, after argument validation and before any blocking — the
	// recording point for the MPI communication lint
	// (internal/analysis.MPILint).
	CommHook func(CommOp)

	Stats Stats

	// The rank's tape (tape.go): appended to while tapeMode is
	// tapeRecord; read from tapePos on, in place of the Channel, while it
	// is tapeReplay.
	tape     Tape
	needs    []int32 // beside tape while recording (Needs)
	tapeMode uint8
	tapePos  int
	departed bool
	// A rank rejoining the world (Rejoin) replays until tapePos is
	// liveAt, and from there runs in liveMode, recording onto liveTape.
	liveAt   int
	liveMode uint8
	liveTape Tape
	// Starve, when set, answers a replaying rank that starves at tape
	// position pos (replayRecv): the packets its peers still send it, and
	// whether it can tell (Deps.Starved).  starved is set once it has
	// answered, feed holds what is left of its packets, and blocked is set
	// when the rank asked for more.
	Starve           func(pos int) (feed [][]byte, ok bool)
	starved, blocked bool
	feed             [][]byte

	errhandler uint32 // guest address of the registered error handler, 0 if none
	inited     bool
	finalized  bool
}

// stored is a packet parked in the unexpected queue.  Eager payload bytes
// are copied into guest heap (heapAddr) so that the guest-memory footprint
// of MPI buffering is visible to the heap profiler and injector.
type stored struct {
	pkt      *Packet
	heapAddr uint32
	heapLen  uint32
	at       int32 // where the tape pulled it (Proc.need)
}

// Proc returns the per-rank runtime state.
func (w *World) Proc(r int) *Proc { return w.procs[r] }

// QueuePeak returns the most packets that were ever parked in the world's
// Channel queues at once, counted exactly at each enqueue.
func (w *World) QueuePeak() int { return w.queuePeak }

// killedTrap is returned from blocking points when the job is torn down.
func killedTrap(m *vm.Machine) *vm.Trap {
	return &vm.Trap{Kind: vm.TrapKilled, PC: m.PC, Msg: "job terminated"}
}

// deliver enqueues raw bytes to dst's Channel queue, waiting while it is
// full, and then lets the scheduler run whichever rank is now earliest.
// A replaying rank has no peers to deliver to: the packet is checked
// against its tape instead.
func (p *Proc) deliver(dst int32, raw []byte, m *vm.Machine) *vm.Trap {
	if live, t := p.TapeOutput(m, TapeSend, dst, raw); !live {
		return t
	}
	if uint(dst) >= uint(p.w.Size) {
		// A group a corrupted packet built names a rank that does not exist.
		return &vm.Trap{Kind: vm.TrapMPIFatal, PC: m.PC, Msg: "ch_p4 protocol failure: no such rank"}
	}
	if !p.send(dst, raw) {
		return killedTrap(m)
	}
	return nil
}

// send is deliver's half on the world's side; false when the job is being
// torn down.
func (p *Proc) send(dst int32, raw []byte) bool {
	q := p.w.procs[dst]
	for q.queued() >= p.w.cfg.QueueDepth {
		if !p.yield(waitSend, q) {
			return false
		}
	}
	q.enqueue(raw)
	return p.yield(waitNone, nil)
}

func (p *Proc) queued() int { return len(p.queue) - p.qhead }

func (p *Proc) enqueue(raw []byte) {
	p.queue = append(p.queue, raw)
	w := p.w
	if w.queued++; w.queued > w.queuePeak {
		w.queuePeak = w.queued
	}
}

// sendPacket marshals and delivers a packet.
func (p *Proc) sendPacket(pkt *Packet, m *vm.Machine) *vm.Trap {
	return p.deliver(pkt.Dst, pkt.Marshal(), m)
}

// receive blocks for the next raw packet: from the Channel, or — a
// replaying rank — from its tape (replayRecv).
func (p *Proc) receive(m *vm.Machine) ([]byte, *vm.Trap) {
	if p.replaying() {
		return p.replayRecv(m)
	}
	raw, alive := p.head()
	if !alive {
		return nil, killedTrap(m)
	}
	p.dequeue()
	if p.tapeMode == tapeRecord {
		p.record(m, TapeRecv, 0, p.awaits, raw)
	}
	return raw, nil
}

// head waits for a packet in the rank's queue and returns it, leaving it
// there; false when the job is being torn down.
func (p *Proc) head() ([]byte, bool) {
	for p.queued() == 0 {
		if !p.yield(waitRecv, nil) {
			return nil, false
		}
	}
	return p.queue[p.qhead], true
}

// dequeue drops the packet at the head of the rank's queue.
func (p *Proc) dequeue() {
	p.queue[p.qhead] = nil
	if p.qhead++; p.qhead == len(p.queue) {
		p.queue, p.qhead = p.queue[:0], 0
	}
	p.w.queued--
}

// pull blocks for the next raw packet, applies the injection hook, parses,
// validates and accounts for it, and returns it with where the rank's tape
// recorded it (Proc.need).  A validation failure is a fatal MPICH-level
// error (Crash manifestation); a starved frame (length field beyond the
// framed bytes) silently drops the packet, which eventually surfaces as a
// Hang.
func (p *Proc) pull(m *vm.Machine) (*Packet, int32, *vm.Trap) {
	for {
		raw, t := p.receive(m)
		if t != nil {
			return nil, 0, t
		}
		var at int32
		if p.tapeMode == tapeRecord {
			at = int32(len(p.tape))
		}

		// §3.3: the injection point — after the Channel recv, before
		// parsing.  A packet from the Channel may be a tape's bytes (a
		// sender's TapeSend, or a ghost's): the hook flips a copy, so no
		// tape holds bytes nobody sent.
		if p.RecvHook != nil {
			raw = append([]byte(nil), raw...)
			p.RecvHook(raw)
		}

		pkt, drop, err := ParsePacket(raw, p.rank, p.w.Size)
		if err != nil {
			return nil, 0, &vm.Trap{
				Kind: vm.TrapMPIFatal, PC: m.PC,
				Msg: "ch_p4 protocol failure: " + err.Error(),
			}
		}
		if drop {
			continue
		}
		p.Stats.account(pkt)
		return pkt, at, nil
	}
}

// park stores an unmatched packet, pulled at at, on the unexpected queue,
// buffering any payload into an MPI-tagged guest heap chunk.
func (p *Proc) park(pkt *Packet, at int32, m *vm.Machine) *vm.Trap {
	s := &stored{pkt: pkt, at: at}
	if n := uint32(len(pkt.Payload)); n > 0 {
		addr := m.Heap.Alloc(n, abi.ChunkMPI)
		if addr == 0 {
			return &vm.Trap{Kind: vm.TrapMPIFatal, PC: m.PC,
				Msg: "out of memory buffering unexpected message"}
		}
		if t := m.WriteBytes(addr, pkt.Payload); t != nil {
			return t
		}
		s.heapAddr, s.heapLen = addr, n
		pkt.Payload = nil // the guest heap copy is now authoritative
	}
	p.unexpected = append(p.unexpected, s)
	return nil
}

// takeStored removes entry i from the unexpected queue and returns its
// payload bytes (read back from the guest heap), freeing the heap chunk.
func (p *Proc) takeStored(i int, m *vm.Machine) (*Packet, []byte, *vm.Trap) {
	s := p.unexpected[i]
	p.unexpected = append(p.unexpected[:i], p.unexpected[i+1:]...)
	var payload []byte
	if s.heapLen > 0 {
		b, t := m.ReadBytes(s.heapAddr, int(s.heapLen))
		if t != nil {
			return nil, nil, t
		}
		if t := m.Heap.Free(s.heapAddr); t != nil {
			return nil, nil, t
		}
		payload = b
	}
	return s.pkt, payload, nil
}

// matchFn selects packets during a blocking wait.
type matchFn func(*Packet) bool

// findStored scans the unexpected queue for a match.
func (p *Proc) findStored(match matchFn) int {
	for i, s := range p.unexpected {
		if match(s.pkt) {
			return i
		}
	}
	return -1
}

// waitMatch blocks until a packet satisfying match arrives.  Packets that
// instead complete a pending nonblocking request are dispatched to it;
// everything else is parked.  The caller must first have scanned the
// unexpected queue.
func (p *Proc) waitMatch(match matchFn, m *vm.Machine) (*Packet, *vm.Trap) {
	for {
		pkt, at, t := p.pull(m)
		if t != nil {
			return nil, t
		}
		if match(pkt) {
			p.need(at)
			return pkt, nil
		}
		consumed, t := p.dispatch(pkt, at, m)
		if t != nil {
			return nil, t
		}
		if consumed {
			continue
		}
		if t := p.park(pkt, at, m); t != nil {
			return nil, t
		}
	}
}

// matchEnvelope matches eager data or RTS packets against a posted
// receive envelope (source, tag, comm), honouring MPI wildcards.  Internal
// collective traffic travels in a separate communicator *context*
// (internalCtx), so a user MPI_ANY_TAG receive can never swallow a
// collective's packet — the same role MPICH's context ids play.
func matchEnvelope(src, tag, comm int32) matchFn {
	return func(pkt *Packet) bool {
		if pkt.Kind != KindEager && pkt.Kind != KindRTS {
			return false
		}
		if pkt.Comm != comm {
			return false
		}
		if src != abi.AnySource && pkt.Src != src {
			return false
		}
		if tag != abi.AnyTag && pkt.Tag != tag {
			return false
		}
		return true
	}
}

// sendBytes implements the ADI-level blocking send of a payload to a
// world rank within wire context ctx (start + wait on a request).
func (p *Proc) sendBytes(dst, tag, ctx, dtype int32, payload []byte, m *vm.Machine) *vm.Trap {
	r, t := p.startSend(m, payload, dst, tag, ctx, dtype)
	if t != nil {
		return t
	}
	return p.wait(r, m)
}

// recvResult is what an ADI-level receive produces.
type recvResult struct {
	src, tag int32
	payload  []byte
}

// recvBytes implements the ADI-level blocking receive into a host-side
// buffer (used by the collectives and the communicator machinery).
func (p *Proc) recvBytes(src, tag, ctx int32, m *vm.Machine) (recvResult, *vm.Trap) {
	r := p.newRequest(false)
	r.src, r.tag, r.ctx, r.limit, r.hostMode = src, tag, ctx, ^uint32(0), true
	if t := p.post(r, m); t != nil {
		return recvResult{}, t
	}
	if t := p.wait(r, m); t != nil {
		return recvResult{}, t
	}
	return recvResult{src: r.resSrc, tag: r.resTag, payload: r.hostPayload}, nil
}
