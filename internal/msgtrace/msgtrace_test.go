package msgtrace

import (
	"testing"

	"mpifault/internal/abi"
	"mpifault/internal/asm"
	"mpifault/internal/cluster"
	"mpifault/internal/guest"
	"mpifault/internal/image"
	"mpifault/internal/isa"
	"mpifault/internal/mpi"
	"mpifault/internal/vm"
)

// send, write and recv are hand-built tape events.
func send(dst int32, data string, instrs uint64) mpi.TapeEvent {
	return mpi.TapeEvent{Kind: mpi.TapeSend, Arg: dst, Instrs: instrs, Data: []byte(data)}
}

func write(fd int32, data string, instrs uint64) mpi.TapeEvent {
	return mpi.TapeEvent{Kind: mpi.TapeWrite, Arg: fd, Instrs: instrs, Data: []byte(data)}
}

func recv(data string, instrs uint64) mpi.TapeEvent {
	return mpi.TapeEvent{Kind: mpi.TapeRecv, Instrs: instrs, Data: []byte(data)}
}

// zero is the tape positions of jobs that start at t=0.
func TestDigestEqualIgnoresInstrs(t *testing.T) {
	a, b := send(1, "abcd", 1000), send(1, "abcd", 2000)
	if digest(&a) != digest(&b) {
		t.Error("outputs differing only in Instrs must digest alike")
	}
	if d := Diff([]mpi.Tape{{a}}, []mpi.Tape{{b}}, -1); d != nil {
		t.Errorf("outputs differing only in Instrs diverged: %+v", d)
	}
	c := send(1, "abce", 1000)
	if digest(&a) == digest(&c) {
		t.Error("a payload difference is not in the digest")
	}
	if d := Diff([]mpi.Tape{{a}}, []mpi.Tape{{c}}, -1); d == nil || d.Kind != KindMismatch {
		t.Errorf("payload difference not detected: %+v", d)
	}
}

func TestTraceHashIgnoresInstrsButNotContent(t *testing.T) {
	base := []mpi.Tape{{send(1, "x", 100), recv("y", 150)}, {recv("x", 200), send(0, "y", 250)}}
	same := []mpi.Tape{{send(1, "x", 999), recv("y", 1)}, {recv("x", 888), send(0, "y", 2)}}
	if Hash(base) != Hash(same) {
		t.Error("instruction stamps must not perturb the trace hash")
	}
	diff := []mpi.Tape{{send(1, "z", 100), recv("y", 150)}, {recv("x", 200), send(0, "y", 250)}}
	if Hash(base) == Hash(diff) {
		t.Error("a payload change must change the trace hash")
	}
	if Messages(base) != 2 {
		t.Errorf("Messages() = %d, want the 2 sends", Messages(base))
	}
}

func TestDiffFindsFirstMismatch(t *testing.T) {
	golden := []mpi.Tape{
		{send(1, "a", 10), recv("b", 20), send(1, "c", 30)},
		{recv("a", 15), send(0, "b", 18), recv("c", 35)},
	}
	obs := []mpi.Tape{
		{send(1, "a", 10), recv("b", 20), send(1, "BAD", 3141)},
		{recv("a", 15), send(0, "b", 18), recv("BAD", 3200)},
	}
	d := Diff(golden, obs, -1)
	if d == nil {
		t.Fatal("divergence not found")
	}
	if d.Rank != 0 || d.MsgIndex != 1 || d.Kind != KindMismatch {
		t.Fatalf("divergence = %+v, want rank 0 output 1 mismatch", d)
	}
	if d.Instrs != 3141 {
		t.Errorf("Instrs = %d, want the observed event's stamp", d.Instrs)
	}
	if d.Golden == "" || d.Observed == "" {
		t.Error("mismatch must render both outputs")
	}
	if Diff(golden, golden, -1) != nil {
		t.Error("identical tapes must not diverge")
	}
}

func TestDiffTruncationAndExtra(t *testing.T) {
	golden := []mpi.Tape{{send(1, "a", 10), write(1, "b", 20)}}
	short := []mpi.Tape{{send(1, "a", 500)}}
	d := Diff(golden, short, -1)
	if d == nil || d.Kind != KindMissing || d.MsgIndex != 1 || d.Instrs != 20 {
		t.Fatalf("truncation divergence = %+v, want the missing output at its golden stamp", d)
	}
	if d.Golden == "" || d.Observed != "" {
		t.Errorf("missing divergence renders only the golden output: %+v", d)
	}
	long := []mpi.Tape{{send(1, "a", 10), write(1, "b", 20), write(1, "c", 30)}}
	d = Diff(golden, long, -1)
	if d == nil || d.Kind != KindExtra || d.MsgIndex != 2 || d.Instrs != 30 {
		t.Fatalf("extra divergence = %+v", d)
	}
}

func TestDiffPrefersActiveDivergenceOverTruncation(t *testing.T) {
	// Rank 0's stream is truncated at index 0 (teardown collateral);
	// rank 1 actively produced different content at index 1, later.  The
	// mismatch implicates the faulty rank.
	golden := []mpi.Tape{
		{recv("a", 5), send(1, "x", 10)},
		{send(0, "a", 4), send(0, "b", 50)},
	}
	obs := []mpi.Tape{{recv("a", 5)}, {send(0, "a", 4), send(0, "BAD", 60)}}
	d := Diff(golden, obs, -1)
	if d == nil || d.Rank != 1 || d.Kind != KindMismatch {
		t.Fatalf("divergence = %+v, want the rank-1 mismatch", d)
	}
}

// TestDiffSkipsReceiveInterleaving: the order a rank pulls packets from
// two senders follows the schedule, which a fault may shift without the
// rank saying anything different.
func TestDiffSkipsReceiveInterleaving(t *testing.T) {
	golden := []mpi.Tape{{recv("from 1", 10), recv("from 2", 20), send(1, "x", 30), recv("from 1", 40), write(1, "ok", 50)}}
	shifted := []mpi.Tape{{recv("from 2", 12), send(1, "x", 31), recv("from 1", 33), recv("from 1", 41), write(1, "ok", 52)}}
	if d := Diff(golden, shifted, -1); d != nil {
		t.Errorf("shifted receives diverged: %+v", d)
	}
}

// TestDiffCrashCountsOnlyTheCrashedRank: in a crash the verdict truncates
// every rank's stream; only the crashed rank's truncation is the fault's.
func TestDiffCrashCountsOnlyTheCrashedRank(t *testing.T) {
	golden := []mpi.Tape{
		{send(1, "a", 10), send(1, "b", 20)},
		{send(0, "c", 15), send(0, "d", 90)},
	}
	obs := []mpi.Tape{{send(1, "a", 10)}, {send(0, "c", 15)}}
	if d := Diff(golden, obs, 1); d == nil || d.Rank != 1 || d.Kind != KindMissing || d.Instrs != 90 {
		t.Errorf("crash on rank 1: %+v, want rank 1's missing output", d)
	}
	if d := Diff(golden, obs, -1); d == nil || d.Rank != 0 || d.Instrs != 20 {
		t.Errorf("hang: %+v, want the earliest missing output, rank 0's", d)
	}
	if d := Diff(golden, []mpi.Tape{obs[0], golden[1]}, 1); d != nil {
		t.Errorf("a crashed rank with nothing left to say: %+v, want none", d)
	}
}

// buildWildcard links a 2-rank program: rank 1 sends two distinct
// messages (tags 5 then 9) to rank 0, which receives both through
// MPI_ANY_SOURCE/MPI_ANY_TAG.  The tape must record the matched
// envelope, not the wildcards.
func buildWildcard(t *testing.T) *image.Image {
	t.Helper()
	b := asm.NewBuilder()
	guest.AddLibc(b)
	guest.AddLibMPI(b)
	m := b.Module("app", image.OwnerUser)
	m.BSS("sendbuf", 4)
	m.BSS("recvbuf", 4)

	f := m.Func("main")
	f.Prologue(0)
	f.CallArgs("MPI_Init")
	f.CallArgs("MPI_Comm_rank", asm.Imm(abi.CommWorld))
	sender, done := f.NewLabel(), f.NewLabel()
	f.Cmpi(isa.R0, 0)
	f.Bne(sender)
	f.CallArgs("MPI_Recv", asm.Sym("recvbuf"), asm.Imm(1), asm.Imm(abi.DTInt32),
		asm.Imm(abi.AnySource), asm.Imm(abi.AnyTag), asm.Imm(abi.CommWorld), asm.Imm(0))
	f.CallArgs("MPI_Recv", asm.Sym("recvbuf"), asm.Imm(1), asm.Imm(abi.DTInt32),
		asm.Imm(abi.AnySource), asm.Imm(abi.AnyTag), asm.Imm(abi.CommWorld), asm.Imm(0))
	f.Jmp(done)
	f.Label(sender)
	f.Movi(isa.R1, 0x11)
	f.StSym("sendbuf", 0, isa.R1)
	f.CallArgs("MPI_Send", asm.Sym("sendbuf"), asm.Imm(1), asm.Imm(abi.DTInt32),
		asm.Imm(0), asm.Imm(5), asm.Imm(abi.CommWorld))
	f.Movi(isa.R1, 0x22)
	f.StSym("sendbuf", 0, isa.R1)
	f.CallArgs("MPI_Send", asm.Sym("sendbuf"), asm.Imm(1), asm.Imm(abi.DTInt32),
		asm.Imm(0), asm.Imm(9), asm.Imm(abi.CommWorld))
	f.Label(done)
	f.CallArgs("MPI_Finalize")
	f.Movi(isa.R0, 0)
	f.Epilogue()
	im, err := b.Link(asm.LinkConfig{})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return im
}

func runRecorded(t *testing.T, im *image.Image) []mpi.Tape {
	t.Helper()
	res := cluster.Run(cluster.Job{Image: im, Size: 2, Budget: 1_000_000, RecordTapes: true})
	if res.HangDetected {
		t.Fatalf("unexpected hang: %s", res.HangCause)
	}
	for r, rr := range res.Ranks {
		if rr.Trap == nil || rr.Trap.Kind != vm.TrapExit || rr.Trap.Code != 0 {
			t.Fatalf("rank %d trap = %+v", r, rr.Trap)
		}
	}
	return res.Tapes
}

func TestWildcardRecvDigestsMatchedEnvelope(t *testing.T) {
	im := buildWildcard(t)
	tapes := runRecorded(t, im)

	// Rank 0's user receives are the first packets it pulls, in order: the
	// matched sender and tags, carrying what rank 1 sent byte for byte.
	var sent, pulled [][]byte
	for _, ev := range tapes[1] {
		if ev.Kind == mpi.TapeSend && ev.Arg == 0 {
			sent = append(sent, ev.Data)
		}
	}
	for _, ev := range tapes[0] {
		if ev.Kind == mpi.TapeRecv {
			pulled = append(pulled, ev.Data)
		}
	}
	if len(sent) < 2 || len(pulled) < 2 {
		t.Fatalf("rank 1 sent %d packets to rank 0, which pulled %d", len(sent), len(pulled))
	}
	for i, want := range []int32{5, 9} {
		pkt, _, err := mpi.ParsePacket(pulled[i], 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if pkt.Src != 1 || pkt.Tag != want {
			t.Errorf("pull %d: source %d tag %d, want the matched sender 1 and tag %d (not the wildcards)", i, pkt.Src, pkt.Tag, want)
		}
		if string(pulled[i]) != string(sent[i]) {
			t.Errorf("pull %d is not the packet rank 1 sent", i)
		}
	}
	if string(pulled[0]) == string(pulled[1]) {
		t.Error("distinct payloads recorded identically")
	}

	// Determinism: a second run hashes alike, and the diff finds nothing.
	again := runRecorded(t, im)
	if Hash(tapes) != Hash(again) {
		t.Errorf("trace hash not reproducible: %016x vs %016x", Hash(tapes), Hash(again))
	}
	if d := Diff(tapes, again, -1); d != nil {
		t.Errorf("identical runs diverged: %+v", d)
	}
}
