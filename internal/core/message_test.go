package core

import (
	"testing"

	"mpifault/internal/cluster"
	"mpifault/internal/mpi"
	"mpifault/internal/vm"
)

// msgTape is rank 0's hand-built recording in a world of four: rank 1
// sends it nothing, rank 2 an eager message, a barrier token and a
// rendezvous (RTS in, CTS out, data in), rank 3 a CTS and two eager
// messages.  order interleaves the two senders' packets; each sender's own
// packets keep their order, as the Channel's FIFO queues guarantee.  Event
// i happens at clock 100(i+1), so a cut at position p is at clock 100p.
func msgTape(order []int) (tape mpi.Tape, streams [4][][]byte) {
	pkt := func(kind uint8, src int32, payload int) []byte {
		return (&mpi.Packet{Kind: kind, Src: src, Payload: make([]byte, payload)}).Marshal()
	}
	streams[2] = [][]byte{pkt(mpi.KindEager, 2, 10), pkt(mpi.KindBarrier, 2, 0), pkt(mpi.KindRTS, 2, 0), pkt(mpi.KindRdvData, 2, 100)}
	streams[3] = [][]byte{pkt(mpi.KindCTS, 3, 0), pkt(mpi.KindEager, 3, 1), pkt(mpi.KindEager, 3, 7)}
	next := [4]int{}
	tape = append(tape, mpi.TapeEvent{Kind: mpi.TapeWrite, Arg: 1, Data: []byte("hello\n")})
	for _, s := range order {
		tape = append(tape, mpi.TapeEvent{Kind: mpi.TapeRecv, Data: streams[s][next[s]]})
		next[s]++
		// Outputs between the pulls: they move tape positions, not bytes.
		tape = append(tape, mpi.TapeEvent{Kind: mpi.TapeSend, Arg: int32(s), Data: pkt(mpi.KindCTS, 0, 0)})
	}
	for i := range tape {
		tape[i].Instrs = 100 * uint64(i+1)
	}
	return tape, streams
}

// msgCtx is a campaign context over hand-built tapes: rank 0 records tape,
// ranks 1-3 nothing, and one snapshot is cut at each of rank 0's given
// tape positions (-1: rank 0 had exited by then).
func msgCtx(tape mpi.Tape, cuts []int) *campaignCtx {
	tapes := []mpi.Tape{tape, nil, nil, nil}
	c := &campaignCtx{golden: &Golden{tapes: tapes, Result: &cluster.Result{}}}
	for _, pos := range cuts {
		s := &cluster.Snapshot{Size: 4, Ranks: make([]cluster.RankSnapshot, 4)}
		s.Ranks[0] = cluster.RankSnapshot{TapePos: pos, Finished: pos < 0}
		if pos >= 0 {
			s.Ranks[0].VM = (&vm.Machine{Instrs: 100 * uint64(pos), Heap: &vm.Allocator{}}).Snapshot()
		}
		c.snaps = append(c.snaps, s)
	}
	c.golden.Result.Snapshots = c.snaps
	return c
}

func TestMessageTargetResolves(t *testing.T) {
	tape, _ := msgTape([]int{3, 2, 2, 3, 2, 3, 2})
	// Rank 2's stream is 58+48+48+148 = 302 bytes, rank 3's 48+49+55 = 152.
	// Tape positions: the write is event 0, pull i is event 1+2i.
	end := len(tape)
	cuts := []int{0, 4, 8, end, -1}
	// pulled (from 2, from 3) at the cuts: (0,0) (58,48) (106,97) (302,152).
	for _, tc := range []struct {
		name   string
		k      uint64
		sender int
		offset uint64
		ckpt   int
		pulled uint64
	}{
		{name: "first byte of rank 2's stream, skipping silent rank 1", k: 0, sender: 2, offset: 0, ckpt: 0},
		{name: "last byte of rank 2's first packet", k: 57, sender: 2, offset: 57, ckpt: 0},
		{name: "first byte of the barrier token", k: 58, sender: 2, offset: 58, ckpt: 1, pulled: 58},
		{name: "RTS header", k: 106, sender: 2, offset: 106, ckpt: 2, pulled: 106},
		{name: "rendezvous data payload", k: 160, sender: 2, offset: 160, ckpt: 2, pulled: 106},
		{name: "last byte of rank 2's stream", k: 301, sender: 2, offset: 301, ckpt: 2, pulled: 106},
		{name: "first byte of rank 3's stream", k: 302, sender: 3, offset: 0, ckpt: 0},
		{name: "rank 3's second packet", k: 302 + 48, sender: 3, offset: 48, ckpt: 1, pulled: 48},
		{name: "last byte of rank 3's stream", k: 302 + 151, sender: 3, offset: 151, ckpt: 2, pulled: 97},
	} {
		ckpt, mi := msgCtx(tape, cuts).messageTarget(0, tc.k)
		if mi.Sender != tc.sender || mi.Offset != tc.offset || ckpt != tc.ckpt || mi.seen != tc.pulled {
			t.Errorf("%s: k=%d -> sender %d offset %d from checkpoint %d with %d pulled, want %d %d %d %d",
				tc.name, tc.k, mi.Sender, mi.Offset, ckpt, mi.seen, tc.sender, tc.offset, tc.ckpt, tc.pulled)
		}
		// Without checkpoints: the same address, from t=0.
		ckpt, mi = msgCtx(tape, nil).messageTarget(0, tc.k)
		if mi.Sender != tc.sender || mi.Offset != tc.offset || ckpt != -1 || mi.seen != 0 {
			t.Errorf("%s, no checkpoints: sender %d offset %d checkpoint %d pulled %d", tc.name, mi.Sender, mi.Offset, ckpt, mi.seen)
		}
	}
	// The barrier token pulled fewer than forensicsDepth instructions after
	// the cut at position 4 (clock 400): the cut before serves instead.
	near := append(mpi.Tape(nil), tape...)
	near[4].Instrs, near[5].Instrs = 420, 400+forensicsDepth-1
	if ckpt, mi := msgCtx(near, cuts).messageTarget(0, 58); ckpt != 0 || mi.seen != 0 {
		t.Errorf("a pull %d instructions past a cut: checkpoint %d with %d pulled, want 0 with 0", forensicsDepth-1, ckpt, mi.seen)
	}
}

// TestMessageTargetHitsTheByte drives the injector the resolver arms over
// the packets the rank pulls after the chosen start, for every byte k of
// the canonical stream and for recorded runs that pulled the packets in
// four different orders: the flipped byte must be byte k of the
// concatenation by sender, whatever the order and whichever snapshot —
// one cut at the very end of the tape included — the run starts from.
func TestMessageTargetHitsTheByte(t *testing.T) {
	for name, order := range map[string][]int{
		"sender 3 first":       {3, 2, 2, 3, 2, 3, 2},
		"sender 2 drained":     {2, 2, 2, 2, 3, 3, 3},
		"sender 3 drained":     {3, 3, 3, 2, 2, 2, 2},
		"alternating, 2 first": {2, 3, 2, 3, 2, 3, 2},
	} {
		tape, streams := msgTape(order)
		for _, cuts := range [][]int{nil, {0}, {2, 5, 9}, {1, len(tape) - 1, len(tape)}, {len(tape)}, {3, -1}} {
			c := msgCtx(tape, cuts)
			var k uint64
			for s, stream := range streams {
				for j, want := range stream {
					for idx := range want {
						ckpt, mi := c.messageTarget(0, k)
						mi.Bit = uint(k % 8)
						pos := 0
						if ckpt >= 0 {
							pos = cuts[ckpt]
						}
						hit := 0
						seen := [4]int{} // packets pulled per sender
						for _, ev := range tape[:pos] {
							if ev.Kind == mpi.TapeRecv {
								seen[mpi.RawSource(ev.Data)]++
							}
						}
						for _, ev := range tape[pos:] {
							if ev.Kind != mpi.TapeRecv {
								continue
							}
							raw := append([]byte(nil), ev.Data...)
							mi.Hook(raw)
							from := mpi.RawSource(ev.Data)
							for i := range raw {
								if raw[i] == ev.Data[i] {
									continue
								}
								hit++
								if from != s || seen[from] != j || i != idx || raw[i]^ev.Data[i] != 1<<mi.Bit {
									t.Fatalf("%s, cuts %v, k=%d: flipped byte %d of packet %d from rank %d, want byte %d of packet %d from rank %d",
										name, cuts, k, i, seen[from], from, idx, j, s)
								}
							}
							seen[from]++
						}
						if injected, _ := mi.Report(); hit != 1 || !injected {
							t.Fatalf("%s, cuts %v, k=%d: %d bytes flipped from checkpoint %d (injected=%v), want exactly one",
								name, cuts, k, hit, ckpt, injected)
						}
						k++
					}
				}
			}
			if k != 302+152 {
				t.Fatalf("walked %d bytes", k)
			}
		}
	}
}

func TestMessageInjectorTriggersOnce(t *testing.T) {
	from := func(src int32) []byte {
		return (&mpi.Packet{Kind: mpi.KindEager, Src: src, Payload: make([]byte, 12)}).Marshal()
	}
	// Byte 110 of what rank 5 sends: 50 bytes into its second 60-byte
	// packet, however many packets of rank 4's arrive in between.
	mi := &MessageInjector{Sender: 5, Offset: 110, Bit: 3}
	pkts := [][]byte{from(5), from(4), from(4), from(5), from(4), from(5)}
	for _, p := range pkts {
		mi.Hook(p)
	}
	injected, desc := mi.Report()
	if !injected {
		t.Fatal("never injected")
	}
	for i, p := range pkts {
		clean := from(int32(mpi.RawSource(p)))
		if i == 3 {
			clean[50] ^= 1 << 3
		}
		if string(p) != string(clean) {
			t.Errorf("packet %d = %x, want %x", i, p, clean)
		}
	}
	if desc != "message byte 50 (payload) bit 3" {
		t.Errorf("offset 50 is past the 48-byte header: desc %q", desc)
	}
}

func TestMessageInjectorHeaderClassification(t *testing.T) {
	mi := &MessageInjector{Sender: 0, Offset: 60 + 10, Bit: 0}
	mi.Hook(make([]byte, 60)) // all zeroes: the source field says rank 0
	mi.Hook(make([]byte, 60))
	if _, desc := mi.Report(); desc != "message byte 10 (header) bit 0" {
		t.Fatalf("byte 10 of the second packet is in the header: desc %q", desc)
	}
	// A short read carries no source field: it is nobody's stream.
	mi = &MessageInjector{Sender: 0, Offset: 3}
	mi.Hook(make([]byte, 8))
	if injected, _ := mi.Report(); injected {
		t.Error("injected into a packet with no header")
	}
}
