// Package msgtrace localizes a fault in the message stream — the
// trace-diff of Okita et al.: the first place an experiment's ranks said
// something the golden run's did not names the rank and the Channel event
// where the fault stopped the run behaving like the reference.
//
// It is a view of the tapes (mpi.Tape) every run can record; there is no
// recorder of its own.  What is compared is each rank's *outputs* — its
// sends, writes, opens and context allocations, by kind, checked scalar
// and bytes — in the rank's program order.  Receives are skipped: the
// order a rank pulls packets from several senders follows the schedule,
// which a fault may shift without anyone saying anything different.
// Instruction stamps ride along for diagnostics and are never compared.
package msgtrace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"mpifault/internal/mpi"
)

// Divergence pinpoints where an experiment's ranks first departed from
// the golden run in what they said — the localization record attached to
// core.Forensics and serialized in campaign journals.
type Divergence struct {
	// Rank is the implicated rank.
	Rank int `json:"rank"`
	// MsgIndex is the position in that rank's output stream (0-based,
	// counted from t=0).
	MsgIndex int `json:"msg_index"`
	// Kind is "mismatch" (both runs produced an output here but they
	// differ), "missing" (the experiment's stream ended early), or
	// "extra" (the experiment produced outputs past the golden end).
	Kind string `json:"kind"`
	// Golden and Observed render the output pair (digest); one is empty
	// for missing/extra divergences.
	Golden   string `json:"golden,omitempty"`
	Observed string `json:"observed,omitempty"`
	// Instrs is the implicated rank's retired-instruction stamp at the
	// divergent output: the observed one for mismatch and extra, the
	// golden one for missing.
	Instrs uint64 `json:"instrs,omitempty"`
	// InstrsSinceInjection is Instrs minus the injection trigger, filled
	// by the campaign when the implicated rank is the injected rank and
	// the trigger lives on the instruction axis.
	InstrsSinceInjection uint64 `json:"instrs_since_injection,omitempty"`
}

// Divergence kinds.
const (
	KindMismatch = "mismatch"
	KindMissing  = "missing"
	KindExtra    = "extra"
)

var kindNames = [...]string{mpi.TapeSend: "send", mpi.TapeOpen: "open", mpi.TapeWrite: "write", mpi.TapeCtx: "ctx"}

// digest renders one output for a divergence record.
func digest(ev *mpi.TapeEvent) string {
	h := fnv.New64a()
	h.Write(ev.Data)
	return fmt.Sprintf("%s arg=%d bytes=%d hash=%016x", kindNames[ev.Kind], ev.Arg, len(ev.Data), h.Sum64())
}

// next returns the index of t's first output at or after i, len(t) when
// there is none.
func next(t mpi.Tape, i int) int {
	for i < len(t) && t[i].Kind == mpi.TapeRecv {
		i++
	}
	return i
}

// Diff returns the first divergence of observed from golden, nil when
// every rank said what it said in the golden run.  observed[r] is what
// rank r recorded from position from[r] of its golden tape on.  An active
// divergence (mismatch, extra) is preferred over a truncated stream, then
// the earliest by (Instrs, rank).  crashed
// is the rank whose trap ended a crashed job, -1 for any other outcome:
// in a crash only its missing suffix counts — the other ranks were cut
// short by the verdict, not by the fault.
func Diff(golden []mpi.Tape, from []int, observed []mpi.Tape, crashed int) *Divergence {
	var best *Divergence
	for r := range observed {
		d := diffRank(r, golden[r], from[r], observed[r])
		if d == nil || d.Kind == KindMissing && crashed >= 0 && r != crashed {
			continue
		}
		if best == nil {
			best = d
		} else if dm, bm := d.Kind == KindMissing, best.Kind == KindMissing; dm != bm {
			if bm {
				best = d
			}
		} else if d.Instrs < best.Instrs {
			best = d
		}
	}
	return best
}

// diffRank finds the first divergence of one rank's outputs.
func diffRank(rank int, golden mpi.Tape, from int, observed mpi.Tape) *Divergence {
	idx := 0
	for i := next(golden, 0); i < from; i = next(golden, i+1) {
		idx++
	}
	g, o := golden[from:], observed
	i, j := next(g, 0), next(o, 0)
	for ; i < len(g) && j < len(o); i, j = next(g, i+1), next(o, j+1) {
		if g[i].Kind != o[j].Kind || g[i].Arg != o[j].Arg || !bytes.Equal(g[i].Data, o[j].Data) {
			return &Divergence{Rank: rank, MsgIndex: idx, Kind: KindMismatch,
				Golden: digest(&g[i]), Observed: digest(&o[j]), Instrs: o[j].Instrs}
		}
		idx++
	}
	switch {
	case j < len(o):
		return &Divergence{Rank: rank, MsgIndex: idx, Kind: KindExtra,
			Observed: digest(&o[j]), Instrs: o[j].Instrs}
	case i < len(g):
		return &Divergence{Rank: rank, MsgIndex: idx, Kind: KindMissing,
			Golden: digest(&g[i]), Instrs: g[i].Instrs}
	}
	return nil
}

// Hash fingerprints a run's tapes — every event's kind, scalars and
// bytes, not its instruction stamp — as the golden-trace identity CI
// compares across shard legs, execution tiers and coordinator workers.
func Hash(tapes []mpi.Tape) uint64 {
	h := fnv.New64a()
	var b [17]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(len(tapes)))
	h.Write(b[:8])
	for _, t := range tapes {
		binary.LittleEndian.PutUint64(b[:8], uint64(len(t)))
		h.Write(b[:8])
		for i := range t {
			ev := &t[i]
			b[0] = byte(ev.Kind)
			binary.LittleEndian.PutUint32(b[1:], uint32(ev.Arg))
			binary.LittleEndian.PutUint32(b[5:], uint32(ev.Ret))
			binary.LittleEndian.PutUint64(b[9:], uint64(len(ev.Data)))
			h.Write(b[:])
			h.Write(ev.Data)
		}
	}
	return h.Sum64()
}

// Messages counts the Channel packets the tapes' ranks sent.
func Messages(tapes []mpi.Tape) int {
	n := 0
	for _, t := range tapes {
		for i := range t {
			if t[i].Kind == mpi.TapeSend {
				n++
			}
		}
	}
	return n
}
