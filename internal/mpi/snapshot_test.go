package mpi

import (
	"reflect"
	"testing"
)

// buildBusyProc populates rank 0 of a fresh world with one of everything
// a snapshot must carry: a parked unexpected packet, a pending receive
// and a pending send in the request table, a user communicator, and
// non-zero counters.
func buildBusyProc(t *testing.T) (*World, *Proc) {
	t.Helper()
	w := NewWorld(2, Config{})
	p := w.procs[0]
	p.inited = true
	p.nextSeq = 42
	p.barrierEpoch = 3
	p.errhandler = 1
	p.Stats = Stats{ControlMsgs: 2, DataMsgs: 5, HeaderBytes: 7 * HeaderBytes, PayloadBytes: 999}

	ci := &commInfo{handle: 256, ctx: 0x400, group: []int32{0, 1}, myRank: 0}
	p.comms[ci.handle] = ci
	p.nextComm = 257

	pkt := &Packet{Kind: KindEager, Src: 1, Dst: 0, Tag: 9, Seq: 7, Dtype: 1, Len: 4,
		Payload: []byte{1, 2, 3, 4}}
	p.unexpected = append(p.unexpected, &stored{pkt: pkt, heapAddr: 0x1000, heapLen: 4})

	rr := &Request{id: 1, buf: 0x2000, limit: 16, dtype: 1, src: -1, tag: 9, ctx: ci.ctx, ci: ci}
	sr := &Request{id: 2, send: true, dst: 1, seq: 5, dtype: 1, ctx: ci.ctx, ci: ci,
		payload: []byte{9, 8}, rdvActive: true, rdvSeq: 11}
	p.requests[rr.id] = rr
	p.requests[sr.id] = sr
	p.pendingRecvs = append(p.pendingRecvs, rr)
	p.pendingSends = append(p.pendingSends, sr)
	p.nextReq = 3
	return w, p
}

func TestProcSnapshotRoundtrip(t *testing.T) {
	_, p := buildBusyProc(t)
	snap := p.Snapshot()

	// Mutating the original after the capture must not reach the
	// snapshot: payloads and request fields are deep-copied.
	p.unexpected[0].pkt.Payload[0] = 0xFF
	p.requests[1].tag = 99
	p.requests[2].payload[0] = 0xFF

	w2 := NewWorld(2, Config{})
	q := w2.procs[0]
	q.Restore(snap)

	if !q.inited || q.nextSeq != 42 || q.barrierEpoch != 3 || q.errhandler != 1 ||
		q.nextReq != 3 || q.nextComm != 257 {
		t.Errorf("scalar state not restored: %+v", q)
	}
	if q.Stats != (Stats{ControlMsgs: 2, DataMsgs: 5, HeaderBytes: 7 * HeaderBytes, PayloadBytes: 999}) {
		t.Errorf("stats not restored: %+v", q.Stats)
	}
	if len(q.unexpected) != 1 || q.unexpected[0].pkt.Payload[0] != 1 ||
		q.unexpected[0].heapAddr != 0x1000 || q.unexpected[0].heapLen != 4 {
		t.Errorf("unexpected queue not restored verbatim: %+v", q.unexpected)
	}
	if len(q.pendingRecvs) != 1 || len(q.pendingSends) != 1 {
		t.Fatalf("pending queues not restored: %d recvs, %d sends",
			len(q.pendingRecvs), len(q.pendingSends))
	}
	// Pending entries must be the same objects as the request table's —
	// completion paths match by pointer identity.
	if q.pendingRecvs[0] != q.requests[1] || q.pendingSends[0] != q.requests[2] {
		t.Error("pending queues do not alias the request table")
	}
	if q.pendingRecvs[0].tag != 9 {
		t.Errorf("recv tag = %d, mutated after capture", q.pendingRecvs[0].tag)
	}
	if got := q.pendingSends[0]; !got.rdvActive || got.rdvSeq != 11 || got.payload[0] != 9 {
		t.Errorf("send request not restored: %+v", got)
	}
	// Communicator pointers rebind to the restored table, not the old one.
	if q.pendingRecvs[0].ci != q.comms[256] || q.comms[256] == p.comms[256] {
		t.Error("communicator not rebound to the restored proc")
	}

	// Snapshot must be a fixpoint: capturing the restored rank yields an
	// identical snapshot.
	if again := q.Snapshot(); !reflect.DeepEqual(snap, again) {
		t.Errorf("snapshot not a fixpoint:\nfirst:  %+v\nsecond: %+v", snap, again)
	}
}

// TestProcMatches: a replaying rank restored from a snapshot matches it at
// the snapshot's tape position, and stops matching with one more packet on
// its unexpected queue, at another position, or once it has departed.
func TestProcMatches(t *testing.T) {
	_, p := buildBusyProc(t)
	snap := p.Snapshot()
	tape := Tape{{Kind: TapeRecv}, {Kind: TapeRecv}}
	replay := func() *Proc {
		q := NewReplayProc(2, Config{}, 0, tape, 1)
		q.Restore(snap)
		return q
	}
	if q := replay(); !q.Matches(snap, 1) || q.Matches(snap, 0) {
		t.Error("a restored rank must match its snapshot at its tape position, and only there")
	}
	if p.Matches(snap, 0) {
		t.Error("a rank that is not replaying matched")
	}
	q := replay()
	q.unexpected = append(q.unexpected, &stored{pkt: &Packet{Kind: KindEager, Src: 1, Tag: 9}})
	if q.Matches(snap, 1) {
		t.Error("an extra unexpected packet matched")
	}
	q = replay()
	q.departed = true
	if q.Matches(snap, 1) {
		t.Error("a departed rank matched")
	}
}

func TestProcSnapshotSharedAcrossRestores(t *testing.T) {
	_, p := buildBusyProc(t)
	snap := p.Snapshot()

	// One snapshot restores many concurrent worlds; a restored rank
	// mutating its state must never corrupt a sibling's.
	wa := NewWorld(2, Config{})
	wb := NewWorld(2, Config{})
	a, b := wa.procs[0], wb.procs[0]
	a.Restore(snap)
	b.Restore(snap)
	a.unexpected[0].pkt.Payload[0] = 0xEE
	a.requests[2].payload[0] = 0xEE
	if b.unexpected[0].pkt.Payload[0] != 1 || b.requests[2].payload[0] != 9 {
		t.Error("restored worlds share packet payloads")
	}
	if c := snap.unexpected[0].pkt.Payload[0]; c != 1 {
		t.Errorf("snapshot payload mutated through a restore: %#x", c)
	}
}
