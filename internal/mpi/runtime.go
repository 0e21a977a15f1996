package mpi

import (
	"sync"
	"sync/atomic"

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

// Rank execution states observed by the deadlock detector.
const (
	StateRunning int32 = iota
	StateBlocked
	StateFinished
)

// World is one MPI job: size ranks and their Channel-level plumbing.
type World struct {
	Size int
	cfg  Config

	procs []*Proc

	kill     chan struct{}
	killOnce sync.Once

	// progress increments on every Channel-level delivery and every rank
	// state change; the deadlock detector watches it.
	progress atomic.Uint64
	inflight atomic.Int64

	// ctxCounter allocates wire context ids for new communicators.
	ctxCounter atomic.Int64

	// transport, when non-nil, carries Channel packets over an external
	// medium instead of the in-process queues.
	transport Transport
}

// SetTransport attaches an external Channel transport.  Call before any
// rank starts executing.  The world does not own the transport; the
// caller must Close it after the job.
func (w *World) SetTransport(t Transport) { w.transport = t }

// inboxPools recycles drained inbox channels, one sync.Pool per capacity
// (restored worlds add snapshot-specific headroom to QueueDepth).  An
// inbox buffer is QueueDepth x 24 bytes of pointer-bearing memory — 96 KiB
// per rank at the default depth — which a campaign would otherwise
// allocate, clear and have the collector scan for every rank of every
// job, although a job rarely queues more than a handful of packets.
var inboxPools sync.Map // int -> *sync.Pool of chan []byte

func inboxPool(depth int) *sync.Pool {
	p, ok := inboxPools.Load(depth)
	if !ok {
		p, _ = inboxPools.LoadOrStore(depth, new(sync.Pool))
	}
	return p.(*sync.Pool)
}

// NewWorld creates the runtime for size ranks.
func NewWorld(size int, cfg Config) *World {
	cfg.fill()
	w := &World{Size: size, cfg: cfg, kill: make(chan struct{})}
	pool := inboxPool(cfg.QueueDepth)
	for r := 0; r < size; r++ {
		in, _ := pool.Get().(chan []byte)
		if in == nil {
			in = make(chan []byte, cfg.QueueDepth)
		}
		p := &Proc{
			w:        w,
			rank:     r,
			in:       in,
			requests: make(map[int32]*Request),
		}
		p.initComms()
		w.procs = append(w.procs, p)
	}
	return w
}

// Release hands the world's inboxes to later worlds, dropping any packet
// nobody pulled.  Call it once the job is over and every goroutine that
// uses the world — ranks and watchers — has been joined; the world must
// not send or receive afterwards.  Nothing a late reader of QueueDepth or
// Stuck looks at is written.  A world on an external transport keeps its
// inboxes: the transport's readers may still be sending into them.
func (w *World) Release() {
	if w.transport != nil {
		return
	}
	pool := inboxPool(w.cfg.QueueDepth)
	for _, p := range w.procs {
		for len(p.in) > 0 {
			<-p.in
		}
		pool.Put(p.in)
	}
}

// Proc is the per-rank runtime state.  All fields except the inbound
// channel are owned by the rank's own goroutine.
type Proc struct {
	w    *World
	rank int
	in   chan []byte

	state atomic.Int32

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

	// TraceHook, when set, observes the rank's message-digest event
	// stream for trace-diff localization (internal/msgtrace).  Unlike
	// CommHook it fires for collectives too, carries the payload bytes
	// (CommOp.Data) and the retired-instruction stamp, and emits receive
	// events at completion with the *matched* envelope rather than at
	// post time with wildcards.  Every event fires on the rank's own
	// goroutine in program order, so the stream is deterministic for a
	// deterministic guest.
	TraceHook func(CommOp)

	Stats Stats

	// The rank's tape (tape.go): appended to while tapeMode is
	// tapeRecord; read from tapePos on, in place of the Channel, while it
	// is tapeReplay.
	tape     Tape
	tapeMode uint8
	tapePos  int
	departed bool

	errhandler uint32 // guest address of the registered error handler, 0 if none
	inited     bool
	finalized  bool
	pmpi       PMPIHook
}

// stored is a packet parked in the unexpected queue.  Eager payload bytes
// are copied into guest heap (heapAddr) so that the guest-memory footprint
// of MPI buffering is visible to the heap profiler and injector.
type stored struct {
	pkt      *Packet
	heapAddr uint32
	heapLen  uint32
}

// Proc returns the per-rank runtime state.
func (w *World) Proc(r int) *Proc { return w.procs[r] }

// Kill terminates all blocking operations in the job.  Safe to call from
// any goroutine, multiple times.
func (w *World) Kill() {
	w.killOnce.Do(func() { close(w.kill) })
}

// Progress returns the global progress counter (deliveries+state changes).
func (w *World) Progress() uint64 { return w.progress.Load() }

// Inflight returns the number of packets enqueued but not yet pulled.
func (w *World) Inflight() int64 { return w.inflight.Load() }

// QueueDepth returns the number of packets currently parked in rank r's
// Channel queue — the telemetry layer samples it for the queue-depth
// high-water mark.  Reading a channel's length is racy by nature; the
// value is a monitoring sample, not a synchronization primitive.
func (w *World) QueueDepth(r int) int { return len(w.procs[r].in) }

// RankState returns the execution state of rank r.
func (w *World) RankState(r int) int32 { return w.procs[r].state.Load() }

// Deadlocked reports whether every unfinished rank is blocked inside the
// runtime with no packet in flight — a certain distributed deadlock,
// since this MPI has no timers.  It is the fast path of the paper's hang
// detection (their fallback was "one minute beyond the expected execution
// completion time", which we also keep at the cluster level).
func (w *World) Deadlocked() bool {
	return w.inflight.Load() == 0 && w.Stalled()
}

// Stalled reports whether no rank is currently executing and at least one
// is blocked in the runtime.  Unlike Deadlocked it ignores in-flight
// packets: a packet can be parked forever in the queue of a rank that
// already exited (e.g. after a corrupted destination field misroutes a
// message), which stalls the job without ever reaching inflight == 0.
// The watchdog confirms a stall across consecutive quiet ticks — any
// genuine wake-up bumps the progress counter — before declaring a hang.
func (w *World) Stalled() bool {
	sawBlocked := false
	for _, p := range w.procs {
		switch p.state.Load() {
		case StateRunning:
			return false
		case StateBlocked:
			sawBlocked = true
		}
	}
	return sawBlocked
}

// Stuck reports whether a stall with packets still in flight is provably
// permanent: every queued packet is parked at a rank that has already
// finished, so nothing will ever pull it.  A packet queued at a live
// blocked rank does NOT count — pull drains the queue whenever that rank
// next gets CPU, so that shape is only a scheduling gap, however long the
// scheduler leaves the rank off-core.  This distinction is what keeps the
// watchdog's in-flight hang verdict load-independent: fixed-seed campaign
// output must be byte-identical no matter how slowly the host schedules
// goroutines.  With an external transport, packets can sit in socket
// buffers outside any inspectable queue, so Stuck stays conservatively
// false and the wall-clock limit is the fallback there.
func (w *World) Stuck() bool {
	if !w.Stalled() {
		return false
	}
	if w.inflight.Load() == 0 {
		return true
	}
	if w.transport != nil {
		return false
	}
	for _, p := range w.procs {
		if len(p.in) > 0 && p.state.Load() != StateFinished {
			return false
		}
	}
	return true
}

func (p *Proc) setState(s int32) {
	p.state.Store(s)
	p.w.progress.Add(1)
}

// MarkFinished records the rank as done for the deadlock detector.
func (p *Proc) MarkFinished() { p.setState(StateFinished) }

// killedTrap is returned from blocking points when the job is torn down.
func killedTrap(m *vm.Machine) *vm.Trap {
	return &vm.Trap{Kind: vm.TrapKilled, PC: m.PC, Msg: "job terminated"}
}

// deliver enqueues raw bytes to dst's Channel queue, directly or over
// the configured external transport.  A replaying rank has no peers to
// deliver to: the packet is checked against its tape instead.
func (p *Proc) deliver(dst int32, raw []byte, m *vm.Machine) *vm.Trap {
	if live, t := p.TapeOutput(m, TapeSend, dst, raw); !live {
		return t
	}
	if tr := p.w.transport; tr != nil {
		if err := tr.Send(p.rank, int(dst), raw); err != nil {
			return &vm.Trap{Kind: vm.TrapMPIFatal, PC: m.PC,
				Msg: "transport send failure: " + err.Error()}
		}
		return nil
	}
	q := p.w.procs[dst].in
	p.w.inflight.Add(1)
	// Enqueueing counts as progress: the stall detector must not mistake
	// the scheduling gap between an enqueue and the receiver's wakeup for
	// a deadlock.
	p.w.progress.Add(1)
	select {
	case q <- raw:
		return nil
	default:
	}
	// Queue full: block, but stay visible to the deadlock detector.
	p.setState(StateBlocked)
	defer p.setState(StateRunning)
	select {
	case q <- raw:
		return nil
	case <-p.w.kill:
		p.w.inflight.Add(-1)
		return killedTrap(m)
	}
}

// sendPacket marshals and delivers a packet.
func (p *Proc) sendPacket(pkt *Packet, m *vm.Machine) *vm.Trap {
	return p.deliver(pkt.Dst, pkt.Marshal(), m)
}

// receive blocks for the next raw packet: from the Channel, or — a
// replaying rank — from its tape, as a copy, because the parsed payload
// aliases the bytes and concurrent replays share the tape.
func (p *Proc) receive(m *vm.Machine) ([]byte, *vm.Trap) {
	if p.tapeMode == tapeReplay {
		ev, t := p.replay(m, TapeRecv, 0, nil)
		if t != nil {
			return nil, t
		}
		return append([]byte(nil), ev.Data...), nil
	}
	var raw []byte
	select {
	case raw = <-p.in:
	default:
		p.setState(StateBlocked)
		select {
		case raw = <-p.in:
			p.setState(StateRunning)
		case <-p.w.kill:
			p.setState(StateRunning)
			return nil, killedTrap(m)
		}
	}
	p.w.inflight.Add(-1)
	p.w.progress.Add(1)
	if p.tapeMode == tapeRecord {
		p.record(m, TapeRecv, 0, 0, raw)
	}
	return raw, nil
}

// pull blocks for the next raw packet, applies the injection hook, parses,
// validates and accounts for it.  A validation failure is a fatal
// MPICH-level error (Crash manifestation); a starved frame (length field
// beyond the framed bytes) silently drops the packet, which eventually
// surfaces as a Hang.
func (p *Proc) pull(m *vm.Machine) (*Packet, *vm.Trap) {
	for {
		raw, t := p.receive(m)
		if t != nil {
			return nil, t
		}

		// §3.3: the injection point — after the Channel recv, before
		// parsing.
		if p.RecvHook != nil {
			p.RecvHook(raw)
		}

		pkt, drop, err := ParsePacket(raw, p.rank, p.w.Size)
		if err != nil {
			return nil, &vm.Trap{
				Kind: vm.TrapMPIFatal, PC: m.PC,
				Msg: "ch_p4 protocol failure: " + err.Error(),
			}
		}
		if drop {
			continue
		}
		p.Stats.account(pkt)
		return pkt, nil
	}
}

// park stores an unmatched packet on the unexpected queue, buffering any
// payload into an MPI-tagged guest heap chunk.
func (p *Proc) park(pkt *Packet, m *vm.Machine) *vm.Trap {
	s := &stored{pkt: pkt}
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
		pkt, t := p.pull(m)
		if t != nil {
			return nil, t
		}
		if match(pkt) {
			return pkt, nil
		}
		consumed, t := p.dispatch(pkt, m)
		if t != nil {
			return nil, t
		}
		if consumed {
			continue
		}
		if t := p.park(pkt, m); t != nil {
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
	r, t := p.startRecvHost(m, src, tag, ctx)
	if t != nil {
		return recvResult{}, t
	}
	if t := p.wait(r, m); t != nil {
		return recvResult{}, t
	}
	return recvResult{src: r.resSrc, tag: r.resTag, payload: r.hostPayload}, nil
}
