package mpi

import (
	"bytes"
	"encoding/binary"

	"mpifault/internal/vm"
)

// A rank's tape is everything it exchanged with the world outside itself
// during a recorded run, in its own program order.  The progress engine
// pulls a packet only on demand (progressUntil/waitMatch -> pull; there is
// no MPI_Test or Iprobe) and the guest's clocks are functions of its
// retired-instruction count, so a rank's whole execution is a pure
// function of the inputs on its tape: replay them into the rank alone and
// it repeats the recorded run instruction for instruction.  The outputs on
// the tape turn that into a proof about the other ranks: while every send
// and write the lone rank makes equals the tape's next event, kind for
// kind and byte for byte, no peer could have observed anything but the
// recorded run, so by induction all of them behave as recorded and need
// not be run.  Inputs and outputs share one sequence because a recorded
// receive may causally depend on an earlier send: a send moved across a
// receive is a departure.
//
// Anything added to the runtime that lets a rank observe the outside —
// MPI_Test, Iprobe, a host clock — must become a tape event.

// TapeKind says what crossed the rank's boundary.
type TapeKind uint8

const (
	// TapeRecv is a packet pulled from the Channel: Data is fed, and Ret
	// is the source the blocking call that pulled it awaited
	// (abi.AnySource: none).
	TapeRecv TapeKind = iota + 1
	// TapeSend is a packet handed to the Channel: Arg (the destination
	// rank) and Data are checked.
	TapeSend
	// TapeOpen is SysOpen: Data (the file name) is checked, Ret (the fd)
	// is fed.
	TapeOpen
	// TapeWrite is a write to fd Arg, console included: Arg and Data are
	// checked.
	TapeWrite
	// TapeCtx is a wire-context allocation: Arg (how many) is checked,
	// Ret (the base the world handed out) is fed.
	TapeCtx
	// TapeAny is the posting of a receive that names no source: what it
	// matches depends on the order packets from several senders arrive
	// in.  Nothing is checked or fed.
	TapeAny
)

// TapeEvent is one crossing.  Instrs is the rank's retired-instruction
// count when it happened.
type TapeEvent struct {
	Kind   TapeKind
	Arg    int32
	Ret    int32
	Instrs uint64
	Data   []byte
}

// Tape is one rank's recording.  It is immutable once the recording job is
// joined, and any number of concurrent replays may share it.
type Tape []TapeEvent

// Proc.tapeMode values; zero is neither.
const (
	tapeRecord uint8 = iota + 1
	tapeReplay
)

// RecordTapes makes every rank record its tape.  Call before any rank
// starts executing; read the tapes with Proc.Tape once the job is joined.
func (w *World) RecordTapes() {
	for _, p := range w.procs {
		p.tapeMode = tapeRecord
	}
}

// Tape returns what the rank has recorded so far.  The rank must be
// quiescent.  A recording rank that rejoined (Rejoin) and is still
// replaying up to its event has recorded the tape up to there.
func (p *Proc) Tape() Tape {
	switch {
	case p.tapeMode == tapeRecord:
		return p.tape
	case p.liveMode == tapeRecord:
		return p.liveTape
	}
	return nil
}

// Needs returns, beside Tape, where the rank needed each packet it pulled:
// for the TapeRecv at i, the position of the first event it could not have
// recorded without the packet — where it waited for it, or answered it (an
// RTS with a CTS, a CTS with the data) — and 0 when it never needed it, or
// pulled it before it rejoined (Rejoin).  A packet pulled while the rank
// waited for another is needed later, or never.
func (p *Proc) Needs() []int32 {
	if p.tapeMode != tapeRecord {
		return nil
	}
	return p.needs
}

// NewReplayProc returns rank's runtime state for a world of size ranks in
// which it is the only rank that exists: the tape, from event pos on,
// stands in for the Channel, the job's files and the world's context
// counter.  Restore a snapshot into it to start mid-run (pos is then the
// snapshot's tape position).
func NewReplayProc(size int, cfg Config, rank int, tape Tape, pos int) *Proc {
	cfg.fill()
	p := &Proc{
		w:        &World{Size: size, cfg: cfg},
		rank:     rank,
		requests: make(map[int32]*Request),
		tape:     tape,
		tapeMode: tapeReplay,
		tapePos:  pos,
		liveAt:   -1,
	}
	p.initComms()
	return p
}

// Rejoin makes a world rank that has been standing in for itself without
// executing — a ghost (GhostSend) — execute again: restored to where it
// stood at event pos of tape, it replays the tape silently, performing
// nothing, up to event at, and from there on crosses the world for real.
// A recording rank's tape then holds the tape's events up to at, and what
// it records live after them.
func (p *Proc) Rejoin(tape Tape, pos, at int) {
	p.liveAt, p.liveMode = at, p.tapeMode
	if p.tapeMode == tapeRecord {
		p.liveTape = tape[:at:at]
	}
	p.tape, p.tapeMode, p.tapePos = tape, tapeReplay, pos
}

// replaying reports whether the rank's next crossing is read from its tape.
// A rejoining rank goes live on reaching its event.
func (p *Proc) replaying() bool {
	if p.tapeMode != tapeReplay {
		return false
	}
	if p.tapePos != p.liveAt {
		return true
	}
	p.tapeMode, p.tape = p.liveMode, p.liveTape
	p.needs = make([]int32, len(p.tape))
	return false
}

// Replayed reports how a replaying rank stands against its tape: left is
// the number of recorded events it has not reached, departed whether it
// did something the recorded run did not — once it has starved, anything
// but blocking for good (Blocked).
func (p *Proc) Replayed() (left int, departed bool) {
	return len(p.tape) - p.tapePos, p.departed || p.starved && !p.blocked
}

// Blocked reports whether a replaying rank starved and then, with every
// packet Starve fed it taken and nothing said, asked for another: it is
// blocked for good, and the job deadlocks (deps.go).
func (p *Proc) Blocked() bool { return p.blocked }

func (p *Proc) record(m *vm.Machine, kind TapeKind, arg, ret int32, data []byte) {
	p.tape = append(p.tape, TapeEvent{Kind: kind, Arg: arg, Ret: ret, Instrs: m.Instrs, Data: data})
	p.needs = append(p.needs, 0)
}

// replay steps over the tape's next event if it is this crossing: the same
// kind, the same checked scalar and, unless the bytes are the input, the
// same bytes.  Anything else — the tape's end included — is a departure,
// which stops the rank.
func (p *Proc) replay(m *vm.Machine, kind TapeKind, arg int32, data []byte) (*TapeEvent, *vm.Trap) {
	if p.tapePos < len(p.tape) && !p.starved {
		ev := &p.tape[p.tapePos]
		if ev.Kind == kind && ev.Arg == arg && (kind == TapeRecv || bytes.Equal(ev.Data, data)) {
			p.tapePos++
			return ev, nil
		}
	}
	p.departed = true
	return nil, &vm.Trap{Kind: vm.TrapKilled, PC: m.PC, Msg: "departed from the recorded run"}
}

// replayRecv is receive for a replaying rank: the tape's next packet, as a
// copy, because the parsed payload aliases the bytes and concurrent
// replays share the tape.  A rank that asks where the tape's next event is
// an output, or its end, starves: it is fed what Starve says its peers
// still send it, and once that is spent it is killed where it waits, as
// the job's deadlock verdict kills it.  Without Starve, or when Starve
// cannot tell, starving departs.
func (p *Proc) replayRecv(m *vm.Machine) ([]byte, *vm.Trap) {
	if !p.starved && p.Starve != nil && (p.tapePos == len(p.tape) || p.tape[p.tapePos].Kind != TapeRecv) {
		p.feed, p.starved = p.Starve(p.tapePos)
	}
	if !p.starved {
		ev, t := p.replay(m, TapeRecv, 0, nil)
		if t != nil {
			return nil, t
		}
		return append([]byte(nil), ev.Data...), nil
	}
	if len(p.feed) == 0 {
		p.blocked = true
		return nil, killedTrap(m)
	}
	raw := p.feed[0]
	p.feed = p.feed[1:]
	return append([]byte(nil), raw...), nil
}

// need marks the packet the tape pulled at position at-1 as needed from
// here on (Needs), if nothing has yet; at is 0 for a packet no tape
// recorded.
func (p *Proc) need(at int32) {
	if at > 0 && p.tapeMode == tapeRecord && p.needs[at-1] == 0 {
		p.needs[at-1] = int32(len(p.tape))
	}
}

// TapeOutput passes something the rank emits through its tape.  live
// tells the caller to really perform it; a replaying rank performs
// nothing, and is stopped by t when the output is not the recorded one.
// data must not be written to afterwards.
func (p *Proc) TapeOutput(m *vm.Machine, kind TapeKind, arg int32, data []byte) (live bool, t *vm.Trap) {
	if p.replaying() {
		_, t = p.replay(m, kind, arg, data)
		return false, t
	}
	if p.tapeMode == tapeRecord {
		p.record(m, kind, arg, 0, data)
	}
	return true, nil
}

// TapeInput passes a request whose answer comes from outside the rank
// through its tape: live performs it for real; a replaying rank gets the
// recorded answer, provided it asked the recorded question.
func (p *Proc) TapeInput(m *vm.Machine, kind TapeKind, arg int32, data []byte, live func() int32) (int32, *vm.Trap) {
	if p.replaying() {
		ev, t := p.replay(m, kind, arg, data)
		if t != nil {
			return 0, t
		}
		return ev.Ret, nil
	}
	ret := live()
	if p.tapeMode == tapeRecord {
		p.record(m, kind, arg, ret, data)
	}
	return ret, nil
}

// A ghost is a world rank that does not execute: cluster.Run drives it
// along its recorded tape, and these are its crossings of the Channel and
// of the context counter.  Each has the scheduling points of the live
// rank's crossing, so a ghost is scheduled as the rank would be.

// GhostSend hands raw, a recorded packet, to rank dst's queue, as
// deliver does (pull copies it before a RecvHook flips it); false when
// the job is being torn down.
func (p *Proc) GhostSend(dst int32, raw []byte) bool {
	return p.send(dst, raw)
}

// GhostPull takes the packet at the head of the rank's queue.  On an
// empty queue it waits for one, as receive does, if wait holds, and
// returns nil if not; alive is false when the job is being torn down.
func (p *Proc) GhostPull(wait bool) (raw []byte, alive bool) {
	if p.queued() == 0 && !wait {
		return nil, true
	}
	if raw, alive = p.head(); alive {
		p.dequeue()
	}
	return raw, alive
}

// GhostUnpull puts raws, packets GhostPull took, back at the head of the
// rank's queue in their order.
func (p *Proc) GhostUnpull(raws [][]byte) {
	p.queue, p.qhead = append(raws[:len(raws):len(raws)], p.queue[p.qhead:]...), 0
	p.w.queued += len(raws)
}

// GhostCtx allocates n wire contexts, as allocCtx does, if the world's
// counter hands out base; false leaves the counter as it is.
func (p *Proc) GhostCtx(n, base int32) bool {
	if int32(p.w.ctxCounter)+ctxDynamicBase != base {
		return false
	}
	p.w.ctxCounter += int64(n)
	return true
}

// RawSource returns the sending rank a raw Channel packet names (header
// bytes 8-11), or -1 when the bytes hold no whole header.
func RawSource(raw []byte) int {
	if len(raw) < HeaderBytes {
		return -1
	}
	return int(int32(binary.LittleEndian.Uint32(raw[8:])))
}

// PulledBytes returns, per sending rank of a world of n, how many Channel
// bytes the tape's first pos events pulled from it.  A sender's stream to
// a rank is FIFO and, with no wildcard receives, the same in every
// fault-free run whatever order the senders' packets arrived in.
func (t Tape) PulledBytes(pos, n int) []uint64 {
	from := make([]uint64, n)
	for i := range t[:pos] {
		if ev := &t[i]; ev.Kind == TapeRecv {
			if s := RawSource(ev.Data); uint(s) < uint(n) {
				from[s] += uint64(len(ev.Data))
			}
		}
	}
	return from
}

// Traffic returns the Stats of a rank that has pulled the packets of the
// tape's first pos events.
func (t Tape) Traffic(pos int) Stats {
	var s Stats
	for i := range t[:pos] {
		if ev := &t[i]; ev.Kind == TapeRecv && len(ev.Data) >= HeaderBytes {
			s.account(&Packet{Kind: ev.Data[4], Payload: ev.Data[HeaderBytes:]})
		}
	}
	return s
}

// PullClock returns the rank's retired-instruction count when the tape
// pulled the packet holding byte offset of sender's stream to it, 0 when
// the tape holds no such byte.
func (t Tape) PullClock(sender int, offset uint64) uint64 {
	for i := range t {
		if ev := &t[i]; ev.Kind == TapeRecv && RawSource(ev.Data) == sender {
			if offset < uint64(len(ev.Data)) {
				return ev.Instrs
			}
			offset -= uint64(len(ev.Data))
		}
	}
	return 0
}
