package mpi

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"mpifault/internal/abi"
	"mpifault/internal/vm"
)

func TestPacketRoundTrip(t *testing.T) {
	f := func(kind uint8, src uint8, tag int32, comm int32, seq uint32, n uint16) bool {
		kinds := []uint8{KindEager, KindRTS, KindCTS, KindRdvData, KindBarrier}
		p := &Packet{
			Kind: kinds[int(kind)%len(kinds)],
			Src:  int32(src % 8), Dst: 3,
			Tag: tag, Comm: comm, Seq: seq,
			Payload: make([]byte, n%4096),
		}
		for i := range p.Payload {
			p.Payload[i] = byte(i)
		}
		raw := p.Marshal()
		q, drop, err := ParsePacket(raw, 3, 8)
		if err != nil || drop {
			return false
		}
		if q.Kind != p.Kind || q.Src != p.Src || q.Tag != p.Tag ||
			q.Comm != p.Comm || q.Seq != p.Seq || len(q.Payload) != len(p.Payload) {
			return false
		}
		for i := range q.Payload {
			if q.Payload[i] != p.Payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestParseFailureModes(t *testing.T) {
	base := (&Packet{Kind: KindEager, Src: 2, Dst: 1, Tag: 5, Comm: abi.CommWorld,
		Payload: []byte{1, 2, 3, 4}}).Marshal()

	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), base...)
		f(b)
		return b
	}

	t.Run("bad magic is fatal", func(t *testing.T) {
		b := mutate(func(b []byte) { b[0] ^= 0x40 })
		if _, _, err := ParsePacket(b, 1, 8); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("unknown kind is fatal", func(t *testing.T) {
		b := mutate(func(b []byte) { b[4] = 200 })
		if _, _, err := ParsePacket(b, 1, 8); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("source out of range is fatal", func(t *testing.T) {
		b := mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 99) })
		if _, _, err := ParsePacket(b, 1, 8); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("dst field is ignored at the receiver", func(t *testing.T) {
		// ch_p4 over a point-to-point socket has an implicit receiver.
		b := mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 6) })
		p, drop, err := ParsePacket(b, 1, 8)
		if err != nil || drop || p == nil {
			t.Fatalf("dst corruption should be benign: %v %v", drop, err)
		}
	})
	t.Run("inflated length silently drops", func(t *testing.T) {
		b := mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[32:], 4096) })
		_, drop, err := ParsePacket(b, 1, 8)
		if err != nil || !drop {
			t.Fatalf("want drop, got drop=%v err=%v", drop, err)
		}
	})
	t.Run("deflated length is fatal desync", func(t *testing.T) {
		b := mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[32:], 1) })
		if _, _, err := ParsePacket(b, 1, 8); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("short frame is fatal", func(t *testing.T) {
		if _, _, err := ParsePacket(base[:20], 1, 8); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("tag corruption parses fine (lost message)", func(t *testing.T) {
		b := mutate(func(b []byte) { b[16] ^= 0x80 })
		p, drop, err := ParsePacket(b, 1, 8)
		if err != nil || drop || p.Tag == 5 {
			t.Fatal("tag flip must parse with the altered tag")
		}
	})
}

// FuzzParsePacket feeds arbitrary bytes and world sizes to the Channel
// parser, the first host code a corrupted peer's header reaches.  It
// must never panic; a drop carries no packet; and a packet it accepts
// names a source inside the world and re-marshals to the input, except
// for the pad (bytes 5-7) and reserved (36-47) bytes the parser never
// reads, which Marshal writes as zeros.
func FuzzParsePacket(f *testing.F) {
	kinds := []uint8{KindEager, KindRTS, KindCTS, KindRdvData, KindBarrier}
	for i, kind := range kinds {
		p := &Packet{Kind: kind, Src: int32(i), Dst: 3, Tag: 5, Comm: abi.CommWorld, Seq: uint32(i)}
		if !p.IsControl() {
			p.Payload = []byte{1, 2, 3, 4}
		}
		f.Add(p.Marshal(), 8)
	}
	base := (&Packet{Kind: KindEager, Src: 2, Dst: 1, Tag: 5, Comm: abi.CommWorld,
		Payload: []byte{1, 2, 3, 4}}).Marshal()
	for _, mutate := range []func(b []byte){
		func(b []byte) { b[0] ^= 0x40 },
		func(b []byte) { b[4] = 200 },
		func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 99) },
		func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 6) },
		func(b []byte) { binary.LittleEndian.PutUint32(b[32:], 4096) },
		func(b []byte) { binary.LittleEndian.PutUint32(b[32:], 1) },
		func(b []byte) { b[16] ^= 0x80 },
		func(b []byte) { b[40] = 0xff },
	} {
		b := append([]byte(nil), base...)
		mutate(b)
		f.Add(b, 8)
	}
	f.Add(base[:20], 8)
	f.Add(base, 0)
	f.Add(base, -1)

	f.Fuzz(func(t *testing.T, b []byte, worldSize int) {
		p, drop, err := ParsePacket(b, 0, worldSize)
		if drop && p != nil {
			t.Fatalf("drop with a packet: %+v", p)
		}
		if err != nil || drop {
			return
		}
		if p.Src < 0 || int(p.Src) >= worldSize {
			t.Fatalf("accepted source %d in a world of %d", p.Src, worldSize)
		}
		want := append([]byte(nil), b...)
		clear(want[5:8])
		clear(want[36:HeaderBytes])
		if got := p.Marshal(); !bytes.Equal(got, want) {
			t.Fatalf("re-marshal differs:\n got %x\nwant %x", got, want)
		}
	})
}

func TestControlClassification(t *testing.T) {
	for kind, isCtl := range map[uint8]bool{
		KindEager: false, KindRdvData: false,
		KindRTS: true, KindCTS: true, KindBarrier: true,
	} {
		p := &Packet{Kind: kind}
		if p.IsControl() != isCtl {
			t.Errorf("kind %d IsControl = %v", kind, p.IsControl())
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	var s Stats
	s.account(&Packet{Kind: KindEager, Payload: make([]byte, 100)})
	s.account(&Packet{Kind: KindRTS})
	s.account(&Packet{Kind: KindCTS})
	s.account(&Packet{Kind: KindRdvData, Payload: make([]byte, 900)})
	if s.DataMsgs != 2 || s.ControlMsgs != 2 {
		t.Fatalf("counts: %+v", s)
	}
	if s.PayloadBytes != 1000 {
		t.Fatalf("payload bytes = %d", s.PayloadBytes)
	}
	if s.HeaderBytes != 4*HeaderBytes {
		t.Fatalf("header bytes = %d", s.HeaderBytes)
	}
	wantHdr := 100 * float64(4*HeaderBytes) / float64(4*HeaderBytes+1000)
	if math.Abs(s.HeaderPercent()-wantHdr) > 1e-9 {
		t.Fatalf("header%% = %v, want %v", s.HeaderPercent(), wantHdr)
	}
	var agg Stats
	agg.Add(s)
	agg.Add(s)
	if agg.TotalBytes() != 2*s.TotalBytes() {
		t.Fatal("Add broken")
	}
}

func TestReduceOps(t *testing.T) {
	mkF64 := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	rdF64 := func(b []byte) []float64 {
		out := make([]float64, len(b)/8)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		return out
	}
	m := &vm.Machine{}

	out, trap := combine(mkF64(1, 5, -2), mkF64(3, 2, -7), abi.DTF64, abi.OpSum, m)
	if trap != nil {
		t.Fatal(trap)
	}
	if got := rdF64(out); got[0] != 4 || got[1] != 7 || got[2] != -9 {
		t.Fatalf("sum = %v", got)
	}

	out, _ = combine(mkF64(1, 5), mkF64(3, 2), abi.DTF64, abi.OpMax, m)
	if got := rdF64(out); got[0] != 3 || got[1] != 5 {
		t.Fatalf("max = %v", got)
	}

	out, _ = combine(mkF64(1, 5), mkF64(3, 2), abi.DTF64, abi.OpMin, m)
	if got := rdF64(out); got[0] != 1 || got[1] != 2 {
		t.Fatalf("min = %v", got)
	}

	out, _ = combine(mkF64(2, 4), mkF64(3, 0.5), abi.DTF64, abi.OpProd, m)
	if got := rdF64(out); got[0] != 6 || got[1] != 2 {
		t.Fatalf("prod = %v", got)
	}

	// NaN must propagate through SUM — that is how corrupted contributions
	// reach NAMD's NaN check after the reduce.
	out, _ = combine(mkF64(math.NaN()), mkF64(3), abi.DTF64, abi.OpSum, m)
	if got := rdF64(out); !math.IsNaN(got[0]) {
		t.Fatalf("NaN did not propagate: %v", got)
	}

	// Int32 reduction.
	i32 := func(vals ...int32) []byte {
		b := make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
		}
		return b
	}
	out, _ = combine(i32(4, -9), i32(-2, 3), abi.DTInt32, abi.OpSum, m)
	if int32(binary.LittleEndian.Uint32(out)) != 2 ||
		int32(binary.LittleEndian.Uint32(out[4:])) != -6 {
		t.Fatal("int32 sum broken")
	}

	// Length mismatch is a fatal library error.
	if _, trap := combine(mkF64(1), mkF64(1, 2), abi.DTF64, abi.OpSum, m); trap == nil {
		t.Fatal("length mismatch must trap")
	}
}

func TestSysTagsAvoidUserRange(t *testing.T) {
	for op := int32(0); op <= collAllgather; op++ {
		for r := int32(0); r < 16; r++ {
			if tag := sysTag(op, r); tag <= abi.MaxUserTag {
				t.Fatalf("sysTag(%d,%d) = %d collides with user tags", op, r, tag)
			}
		}
	}
}

func TestInternalContextDistinct(t *testing.T) {
	if internalCtx(abi.CommWorld) == abi.CommWorld {
		t.Fatal("internal context must differ from the user communicator")
	}
}

// TestSchedulingPoints drives two ranks by hand through every way a rank
// suspends inside the runtime, checking what Runnable says at each.
func TestSchedulingPoints(t *testing.T) {
	w := NewWorld(2, Config{QueueDepth: 1})
	p0, p1 := w.procs[0], w.procs[1]
	m := &vm.Machine{}
	var got [][]byte
	var sendTrap, recvTrap *vm.Trap
	p0.Start(func() {
		for _, b := range []byte{1, 2, 3} {
			if sendTrap = p0.deliver(1, []byte{b}, m); sendTrap != nil {
				return
			}
		}
	})
	p1.Start(func() {
		for {
			raw, tr := p1.receive(m)
			if recvTrap = tr; tr != nil {
				return
			}
			got = append(got, raw)
		}
	})

	if !p1.Resume() || p1.Runnable() {
		t.Fatal("a pull on an empty queue must suspend the rank until a packet is queued")
	}
	if !p0.Resume() || !p0.Runnable() || !p1.Runnable() {
		t.Fatal("a send suspends after the enqueue, waiting for nothing, and wakes the receiver")
	}
	if !p0.Resume() || p0.Runnable() {
		t.Fatal("a send into a full queue must suspend the rank until there is room")
	}
	if !p1.Resume() || len(got) != 1 || !p0.Runnable() {
		t.Fatalf("the receiver pulled %d packets; the sender must be runnable again", len(got))
	}
	for i := 0; i < 4; i++ {
		p0.Resume()
		p1.Resume()
	}
	if p0.Resume() || sendTrap != nil {
		t.Fatalf("the sender did not end cleanly: %v", sendTrap)
	}
	if len(got) != 3 || got[0][0] != 1 || got[1][0] != 2 || got[2][0] != 3 {
		t.Fatalf("pulled %v, want the three packets in FIFO order", got)
	}
	if w.QueuePeak() != 1 {
		t.Errorf("queue peak %d, want 1", w.QueuePeak())
	}
	if p1.Runnable() {
		t.Fatal("the receiver waits on an empty queue again")
	}
	p1.Kill()
	if recvTrap == nil || recvTrap.Kind != vm.TrapKilled || p1.Resume() {
		t.Fatalf("killing a suspended rank must fail its pull with a kill, got %v", recvTrap)
	}

	// A rank that was never resumed never runs.
	ran := false
	p := NewWorld(1, Config{}).procs[0]
	p.Start(func() { ran = true })
	p.Kill()
	if p.Resume() || ran {
		t.Fatal("a rank killed before its first resume ran")
	}
}

func TestAPIArgumentChecks(t *testing.T) {
	w := NewWorld(2, Config{})
	p := w.Proc(0)
	m := &vm.Machine{}

	// Before Init, everything fails.
	if tr := p.Barrier(m, abi.CommWorld); tr == nil || tr.Kind != vm.TrapMPIFatal {
		t.Fatalf("pre-init barrier: %v", tr)
	}
	if tr := p.Init(m); tr != nil {
		t.Fatal(tr)
	}
	if tr := p.Init(m); tr == nil {
		t.Fatal("double init must fail")
	}

	// Default error behaviour is fatal (MPI_ERRORS_ARE_FATAL).
	tr := p.Send(m, 0, 1, abi.DTInt32, 99, 0, abi.CommWorld)
	if tr == nil || tr.Kind != vm.TrapMPIFatal {
		t.Fatalf("bad dest: %v", tr)
	}
	if !strings.Contains(tr.Msg, "MPI_ERR_RANK") {
		t.Fatalf("message %q lacks the error class", tr.Msg)
	}

	// With a registered handler the same error becomes MPI-Detected.
	if tr := p.ErrhandlerSet(m, abi.CommWorld, 0x1234); tr != nil {
		t.Fatal(tr)
	}
	tr = p.Send(m, 0, 1, abi.DTInt32, 99, 0, abi.CommWorld)
	if tr == nil || tr.Kind != vm.TrapMPIHandler {
		t.Fatalf("bad dest with handler: %v", tr)
	}

	// Other argument checks.
	if tr := p.Send(m, 0, -1, abi.DTInt32, 1, 0, abi.CommWorld); tr == nil ||
		tr.Code != abi.ErrCount {
		t.Fatalf("negative count: %v", tr)
	}
	if tr := p.Send(m, 0, 1, 99, 1, 0, abi.CommWorld); tr == nil ||
		tr.Code != abi.ErrType {
		t.Fatalf("bad datatype: %v", tr)
	}
	if tr := p.Send(m, 0, 1, abi.DTInt32, 1, -5, abi.CommWorld); tr == nil ||
		tr.Code != abi.ErrTag {
		t.Fatalf("bad tag: %v", tr)
	}
	if tr := p.Send(m, 0, 1, abi.DTInt32, 1, 0, 1234); tr == nil ||
		tr.Code != abi.ErrComm {
		t.Fatalf("bad comm: %v", tr)
	}
	if tr := p.Reduce(m, 0, 0, 1, abi.DTF64, 99, 0, abi.CommWorld); tr == nil ||
		tr.Code != abi.ErrOp {
		t.Fatalf("bad op: %v", tr)
	}
}

func TestCommSelfSemantics(t *testing.T) {
	w := NewWorld(4, Config{})
	p := w.Proc(2)
	m := &vm.Machine{}
	p.Init(m)
	r, tr := p.CommRank(m, abi.CommSelf)
	if tr != nil || r != 0 {
		t.Fatalf("self rank = %d, %v", r, tr)
	}
	s, tr := p.CommSize(m, abi.CommSelf)
	if tr != nil || s != 1 {
		t.Fatalf("self size = %d, %v", s, tr)
	}
	rw, _ := p.CommRank(m, abi.CommWorld)
	if rw != 2 {
		t.Fatalf("world rank = %d", rw)
	}
}

func TestDTSizes(t *testing.T) {
	if abi.DTSize(abi.DTInt32) != 4 || abi.DTSize(abi.DTF64) != 8 || abi.DTSize(abi.DTByte) != 1 {
		t.Fatal("datatype sizes wrong")
	}
	if abi.DTSize(42) != 0 {
		t.Fatal("invalid datatype must size to 0")
	}
}
