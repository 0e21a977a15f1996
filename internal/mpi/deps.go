package mpi

import (
	"sort"
	"sync"
)

// Deadlocks decided on one rank (DESIGN.md §3.4).  A replaying rank
// starves when it asks for a packet where its tape's next event, at
// position q, is one of its own outputs or the tape's end.  Up to q every
// output it made was the recorded one, so every peer runs as recorded up
// to its cut: its first event that needs one of the rank's events from q
// on.  What the peers still send the rank is then every packet whose send
// needs none of those events.  A rank that has taken all of them and
// still asks for more, having said nothing, is blocked for good, and so is
// every peer at its cut: the job deadlocks.
//
// Deps is the happens-before order of a recorded run that answers this.
// Its edges are each tape's program order; each packet's send before the
// event from which its receiver needed it (Proc.Needs) — a packet
// pulled while the rank waited for another is not needed there, and one
// never needed holds nothing up; and the order in which the world's
// counters handed out context bases and fds.  Sends and pulls are matched
// sender by sender, in FIFO order.

// Deps indexes a recorded run's tapes.  Build it with NewDeps; any number
// of replays may share it.
type Deps struct {
	tapes []Tape
	needs [][]int32
	// send[p][i] is the send of the packet the TapeRecv at event i of p's
	// tape pulled.
	send [][]event
	// after[p] lists, by position, the events of other ranks p's tape
	// waits for: event at of p comes after event from.
	after [][]edge
	// unpulled[p] are the sends to p that p never pulled, sender by
	// sender in the order sent.
	unpulled [][]event
	// wildcard is set when a tape posted a receive that names no source:
	// no deadlock is decided then.
	wildcard bool
	// on[r] returns, for every event, how many of rank r's events happen
	// before it or are it: non-decreasing along each tape.  It is built
	// the first time one of r's replays starves.
	on []func() [][]int32
}

// event is event i of rank p's tape.
type event struct{ p, i int32 }

// edge is one entry of Deps.after.
type edge struct {
	at   int32
	from event
}

// NewDeps indexes tapes, one per rank of a recorded run from t=0, with
// where each rank needed the packets it pulled (Proc.Needs).
func NewDeps(tapes []Tape, needs [][]int32) *Deps {
	n := len(tapes)
	d := &Deps{tapes: tapes, needs: needs, send: make([][]event, n), after: make([][]edge, n),
		unpulled: make([][]event, n), on: make([]func() [][]int32, n)}
	for r := range d.on {
		d.on[r] = sync.OnceValue(func() [][]int32 { return d.walk(r) })
	}
	sends := make([][][]int32, n) // sends[dst][src]: src's sends to dst
	for p := range sends {
		sends[p] = make([][]int32, n)
	}
	allocs := map[TapeKind][]event{} // context bases, fds
	for p, t := range tapes {
		for i := range t {
			switch ev := &t[i]; ev.Kind {
			case TapeSend:
				sends[ev.Arg][p] = append(sends[ev.Arg][p], int32(i))
			case TapeCtx, TapeOpen:
				allocs[ev.Kind] = append(allocs[ev.Kind], event{int32(p), int32(i)})
			case TapeAny:
				d.wildcard = true
			}
		}
	}
	for p, t := range tapes {
		d.send[p] = make([]event, len(t))
		pulled := make([]int, n)
		for i := range t {
			if t[i].Kind == TapeRecv {
				s := RawSource(t[i].Data)
				d.send[p][i] = event{int32(s), sends[p][s][pulled[s]]}
				pulled[s]++
				if need := int(needs[p][i]); need > 0 && need < len(t) {
					d.after[p] = append(d.after[p], edge{int32(need), d.send[p][i]})
				}
			}
		}
		for s, idx := range sends[p] {
			for _, i := range idx[pulled[s]:] {
				d.unpulled[p] = append(d.unpulled[p], event{int32(s), i})
			}
		}
	}
	for _, a := range allocs {
		sort.Slice(a, func(i, j int) bool { return d.at(a[i]).Ret < d.at(a[j]).Ret })
		for k := 1; k < len(a); k++ {
			d.after[a[k].p] = append(d.after[a[k].p], edge{a[k].i, a[k-1]})
		}
	}
	for _, a := range d.after {
		sort.Slice(a, func(i, j int) bool { return a[i].at < a[j].at })
	}
	return d
}

func (d *Deps) at(e event) *TapeEvent { return &d.tapes[e.p][e.i] }

// walk builds on[rank]: it walks every tape as far as its events'
// predecessors have been walked, until every tape is walked.
func (d *Deps) walk(rank int) [][]int32 {
	on := make([][]int32, len(d.tapes))
	for p, t := range d.tapes {
		on[p] = make([]int32, 0, len(t))
	}
	next := make([]int, len(d.tapes)) // next[p]: p's first edge not walked past
	for moved := true; moved; {
		moved = false
		for p, t := range d.tapes {
			for i := len(on[p]); i < len(t); i++ {
				v := int32(i + 1)
				if p != rank {
					v = 0
					if i > 0 {
						v = on[p][i-1]
					}
				}
				k, a := next[p], d.after[p]
				for ; k < len(a) && int(a[k].at) == i && int(a[k].from.i) < len(on[a[k].from.p]); k++ {
					v = max(v, on[a[k].from.p][a[k].from.i])
				}
				if k < len(a) && int(a[k].at) == i {
					break
				}
				next[p], on[p] = k, append(on[p], v)
				moved = true
			}
		}
	}
	for p, t := range d.tapes {
		if len(on[p]) < len(t) {
			panic("mpi: the tapes' happens-before order has a cycle")
		}
	}
	return on
}

// Cuts returns, per rank, the position its tape stops at when rank stops
// at pos: for rank, pos; for a peer, its first event that needs one of
// rank's events from pos on, or its tape's end.
func (d *Deps) Cuts(rank, pos int) []int {
	on := d.on[rank]()
	cuts := make([]int, len(d.tapes))
	for p, op := range on {
		cuts[p] = sort.Search(len(op), func(i int) bool { return int(op[i]) > pos })
	}
	cuts[rank] = pos
	return cuts
}

// Starved answers rank starving at position pos of its tape: feed is every
// packet its peers still send it — those its tape pulls after pos whose
// sends need none of its events from pos on, in tape order, then those it
// never pulled.  ok is false when a deadlock cannot be decided: a tape
// posted a receive that names no source; a peer's cut is not a wait for a
// packet that never comes — it would answer that packet there (an RTS or a
// CTS), or be handed another context base or fd, and go on; or a
// rendezvous packet reaches a peer waiting at its cut, which could answer
// it.
func (d *Deps) Starved(rank, pos int) (feed [][]byte, ok bool) {
	if d.wildcard {
		return nil, false
	}
	on := d.on[rank]()
	sent := func(e event) bool { return int(on[e.p][e.i]) <= pos }
	for p, cut := range d.Cuts(rank, pos) {
		t := d.tapes[p]
		if p == rank {
			for i := pos + 1; i < len(t); i++ {
				if t[i].Kind == TapeRecv && sent(d.send[p][i]) {
					feed = append(feed, t[i].Data)
				}
			}
		} else if cut < len(t) {
			waits := false
			for i := range t[:cut] {
				if t[i].Kind == TapeRecv && int(d.needs[p][i]) == cut && !sent(d.send[p][i]) {
					if Answered(t[i].Data) {
						return nil, false
					}
					waits = true
				}
			}
			if !waits {
				return nil, false
			}
			for i := cut; i < len(t); i++ {
				if t[i].Kind == TapeRecv && sent(d.send[p][i]) && Answered(t[i].Data) {
					return nil, false
				}
			}
		} else {
			continue
		}
		for _, e := range d.unpulled[p] {
			if !sent(e) {
				continue
			}
			if p == rank {
				feed = append(feed, d.at(e).Data)
			} else if Answered(d.at(e).Data) {
				return nil, false
			}
		}
	}
	return feed, true
}

// Answered reports whether raw is a packet the progress engine answers the
// moment it pulls it, if a matching request is posted: an RTS, with a CTS,
// or a CTS, with the data.
func Answered(raw []byte) bool {
	return len(raw) > 4 && (raw[4] == KindRTS || raw[4] == KindCTS)
}
