// Package msgtrace records compact per-rank message digests over
// mpi.Proc.TraceHook and binary-diffs an experiment's stream against
// the golden run's — the trace-diff localization of Okita et al.: the
// first divergent digest names the rank and message where a fault
// stopped the run behaving like the reference.
//
// A digest is (op, peer, tag, byte count, FNV-1a payload hash).  The
// retired-instruction stamp rides along for diagnostics but is excluded
// from equality and from Trace.Hash: instruction counts shift with the
// injected fault, the message *content* is what must match.
package msgtrace

import (
	"fmt"

	"mpifault/internal/mpi"
)

// FNV-1a 64-bit parameters (hash/fnv re-implemented locally so the hot
// append path hashes without an interface allocation).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

func fnvUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xFF)) * fnvPrime
		v >>= 8
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// Digest is one recorded message event.
type Digest struct {
	Op    string // MPI function, e.g. "MPI_Send"
	Peer  int32  // matched peer (or root; -1 for rootless collectives)
	Tag   int32  // matched tag; 0 for collectives
	Bytes uint32 // payload bytes moved at this rank
	Hash  uint64 // FNV-1a of the payload; fnvOffset when empty
	// Instrs is the rank's retired-instruction count at the event.
	// Diagnostic only: excluded from Equal and Trace.Hash.
	Instrs uint64
}

// Equal compares the semantic fields (everything but Instrs).
func (d Digest) Equal(o Digest) bool {
	return d.Op == o.Op && d.Peer == o.Peer && d.Tag == o.Tag &&
		d.Bytes == o.Bytes && d.Hash == o.Hash
}

// String renders the digest for forensics records and tables.
func (d Digest) String() string {
	return fmt.Sprintf("%s peer=%d tag=%d bytes=%d hash=%016x",
		d.Op, d.Peer, d.Tag, d.Bytes, d.Hash)
}

// Trace is the full per-rank digest record of one run.
type Trace struct {
	Ranks [][]Digest `json:"ranks"`
}

// Messages returns the total digest count across ranks.
func (t *Trace) Messages() int {
	n := 0
	for _, r := range t.Ranks {
		n += len(r)
	}
	return n
}

// Hash folds every semantic digest field into one FNV-1a value — the
// golden-trace fingerprint CI compares across shard legs, execution
// tiers and the coordinator path.
func (t *Trace) Hash() uint64 {
	h := fnvUint(uint64(fnvOffset), uint64(len(t.Ranks)))
	for _, ds := range t.Ranks {
		h = fnvUint(h, uint64(len(ds)))
		for _, d := range ds {
			h = fnvString(h, d.Op)
			h = fnvUint(h, uint64(uint32(d.Peer)))
			h = fnvUint(h, uint64(uint32(d.Tag)))
			h = fnvUint(h, uint64(d.Bytes))
			h = fnvUint(h, d.Hash)
		}
	}
	return h
}

// Recorder captures a Trace from a live world.  Each rank appends only
// to its own stream, and a world runs one rank at a time, so recording
// needs no locks.
type Recorder struct {
	ranks [][]Digest
}

// NewRecorder returns a recorder for a world of the given size.
func NewRecorder(ranks int) *Recorder {
	return &Recorder{ranks: make([][]Digest, ranks)}
}

// Reset re-arms the recorder for a fresh run of the same world size,
// keeping the per-rank backing arrays (it is pooled per campaign
// worker, like the forensics flight recorder).
func (rec *Recorder) Reset(ranks int) {
	if len(rec.ranks) != ranks {
		rec.ranks = make([][]Digest, ranks)
		return
	}
	for r := range rec.ranks {
		rec.ranks[r] = rec.ranks[r][:0]
	}
}

// Attach installs the digest hook on one rank's Proc (cluster.Job.Setup
// calls it for every rank).
func (rec *Recorder) Attach(p *mpi.Proc) {
	p.TraceHook = func(op mpi.CommOp) {
		rec.ranks[op.Rank] = append(rec.ranks[op.Rank], Digest{
			Op:     op.Fn,
			Peer:   op.Peer,
			Tag:    op.Tag,
			Bytes:  op.Bytes,
			Hash:   fnvBytes(fnvOffset, op.Data),
			Instrs: op.Instrs,
		})
	}
}

// Trace snapshots the recorded streams.  The digests are shared with
// the recorder, so call it only after the run finished and before the
// recorder is Reset.
func (rec *Recorder) Trace() *Trace {
	return &Trace{Ranks: rec.ranks}
}

// Divergence pinpoints where an experiment's message streams first
// departed from the golden trace — the localization record attached to
// core.Forensics and serialized in campaign journals.
type Divergence struct {
	// Rank is the implicated rank: the first whose stream diverges.
	Rank int `json:"rank"`
	// MsgIndex is the position in that rank's stream (0-based).
	MsgIndex int `json:"msg_index"`
	// Kind is "mismatch" (both runs produced a message here but they
	// differ), "missing" (the experiment's stream ended early), or
	// "extra" (the experiment produced messages past the golden end).
	Kind string `json:"kind"`
	// Golden and Observed render the digest pair; one is empty for
	// missing/extra divergences.
	Golden   string `json:"golden,omitempty"`
	Observed string `json:"observed,omitempty"`
	// Instrs is the implicated rank's retired-instruction stamp at the
	// divergent (or last observed) event.
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

// kindPrio orders divergence kinds by how directly they implicate the
// rank: content mismatches and extra messages are something the rank
// actively did differently; a truncated stream can be collateral (job
// teardown stops innocent ranks mid-conversation too).
func kindPrio(kind string) int {
	switch kind {
	case KindMismatch:
		return 0
	case KindExtra:
		return 1
	default:
		return 2
	}
}

// Diff compares an observed trace against the golden one and returns
// the first divergence, or nil when every rank's stream matches.  Among
// ranks it prefers active divergences (mismatch, extra) over
// truncations, then the lowest message index, then the lowest rank —
// a deterministic choice for deterministic streams.
func Diff(golden, observed *Trace) *Divergence {
	if golden == nil || observed == nil {
		return nil
	}
	var best *Divergence
	n := len(golden.Ranks)
	if len(observed.Ranks) < n {
		n = len(observed.Ranks)
	}
	for rank := 0; rank < n; rank++ {
		d := diffRank(rank, golden.Ranks[rank], observed.Ranks[rank])
		if d == nil {
			continue
		}
		if best == nil ||
			kindPrio(d.Kind) < kindPrio(best.Kind) ||
			(kindPrio(d.Kind) == kindPrio(best.Kind) && d.MsgIndex < best.MsgIndex) {
			best = d
		}
	}
	return best
}

// diffRank finds the first divergent index of one rank's stream.
func diffRank(rank int, golden, observed []Digest) *Divergence {
	n := len(golden)
	if len(observed) < n {
		n = len(observed)
	}
	for i := 0; i < n; i++ {
		if !golden[i].Equal(observed[i]) {
			return &Divergence{
				Rank: rank, MsgIndex: i, Kind: KindMismatch,
				Golden:   golden[i].String(),
				Observed: observed[i].String(),
				Instrs:   observed[i].Instrs,
			}
		}
	}
	switch {
	case len(observed) > len(golden):
		return &Divergence{
			Rank: rank, MsgIndex: n, Kind: KindExtra,
			Observed: observed[n].String(),
			Instrs:   observed[n].Instrs,
		}
	case len(observed) < len(golden):
		d := &Divergence{
			Rank: rank, MsgIndex: n, Kind: KindMissing,
			Golden: golden[n].String(),
		}
		if n > 0 {
			d.Instrs = observed[n-1].Instrs
		}
		return d
	}
	return nil
}
