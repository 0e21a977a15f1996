package mpi

import (
	"bytes"
	"testing"
	"time"

	"mpifault/internal/abi"
	"mpifault/internal/vm"
)

// handTape is a short recording with one event of every kind, as rank 0 of
// a 2-rank world would have made it.
func handTape() (Tape, []byte) {
	tok := (&Packet{Kind: KindBarrier, Src: 1, Dst: 0, Tag: 3, Comm: abi.CommWorld, Seq: 1}).Marshal()
	sent := (&Packet{Kind: KindEager, Src: 0, Dst: 1, Tag: 7, Comm: abi.CommWorld, Payload: []byte{1, 2, 3, 4}}).Marshal()
	return Tape{
		{Kind: TapeSend, Arg: 1, Instrs: 10, Data: sent},
		{Kind: TapeRecv, Instrs: 20, Data: tok},
		{Kind: TapeOpen, Ret: 5, Instrs: 30, Data: []byte("out.dat")},
		{Kind: TapeWrite, Arg: 5, Instrs: 40, Data: []byte("42\n")},
		{Kind: TapeCtx, Arg: 2, Ret: 0x400, Instrs: 50},
	}, sent
}

// replayHand drives a replaying proc through handTape's crossings, with
// step i replaced by tamper when non-nil, and reports how far it got.
func replayHand(t *testing.T, tape Tape, sent []byte, at int, tamper func(p *Proc, m *vm.Machine) *vm.Trap) (steps int, p *Proc) {
	t.Helper()
	p = NewReplayProc(2, Config{}, 0, tape, 0)
	m := &vm.Machine{}
	never := func() int32 { t.Error("a replaying rank performed a live operation"); return -1 }
	script := []func() *vm.Trap{
		func() *vm.Trap { return p.deliver(1, sent, m) },
		func() *vm.Trap {
			raw, tr := p.receive(m)
			if tr == nil {
				if !bytes.Equal(raw, tape[1].Data) {
					t.Errorf("replayed pull fed %x", raw)
				}
				raw[0] ^= 0xFF // the engine owns its copy
			}
			return tr
		},
		func() *vm.Trap {
			fd, tr := p.TapeInput(m, TapeOpen, 0, []byte("out.dat"), never)
			if tr == nil && fd != 5 {
				t.Errorf("replayed open fed fd %d, want 5", fd)
			}
			return tr
		},
		func() *vm.Trap {
			live, tr := p.TapeOutput(m, TapeWrite, 5, []byte("42\n"))
			if live {
				t.Error("a replaying rank was told to write for real")
			}
			return tr
		},
		func() *vm.Trap {
			base, tr := p.allocCtx(2, m)
			if tr == nil && base != 0x400 {
				t.Errorf("replayed allocCtx fed %#x, want 0x400", base)
			}
			return tr
		},
	}
	for i, step := range script {
		if i == at && tamper != nil {
			step = func() *vm.Trap { return tamper(p, m) }
		}
		if tr := step(); tr != nil {
			if tr.Kind != vm.TrapKilled {
				t.Errorf("step %d stopped the rank with %v, want a kill", i, tr)
			}
			return i, p
		}
	}
	return len(script), p
}

func TestTapeReplayFeedsInputsAndChecksOutputs(t *testing.T) {
	tape, sent := handTape()
	pristine := append([]byte(nil), tape[1].Data...)
	steps, p := replayHand(t, tape, sent, -1, nil)
	if left, departed := p.Replayed(); steps != len(tape) || left != 0 || departed {
		t.Fatalf("faithful replay: %d steps, %d events left, departed=%v", steps, left, departed)
	}
	if !bytes.Equal(tape[1].Data, pristine) {
		t.Error("a replayed pull aliased the shared tape")
	}
}

func TestTapeDepartures(t *testing.T) {
	tape, sent := handTape()
	flipped := append([]byte(nil), sent...)
	flipped[HeaderBytes+2] ^= 0x10
	cases := []struct {
		name   string
		at     int
		tamper func(p *Proc, m *vm.Machine) *vm.Trap
	}{
		{"flipped payload byte in a send", 0, func(p *Proc, m *vm.Machine) *vm.Trap { return p.deliver(1, flipped, m) }},
		{"send to another rank", 0, func(p *Proc, m *vm.Machine) *vm.Trap { return p.deliver(0, sent, m) }},
		{"receive moved before the send", 0, func(p *Proc, m *vm.Machine) *vm.Trap { _, tr := p.receive(m); return tr }},
		{"send where a receive was recorded", 1, func(p *Proc, m *vm.Machine) *vm.Trap { return p.deliver(1, sent, m) }},
		{"another file name", 2, func(p *Proc, m *vm.Machine) *vm.Trap {
			_, tr := p.TapeInput(m, TapeOpen, 0, []byte("other.dat"), func() int32 { return -1 })
			return tr
		}},
		{"wrong fd", 3, func(p *Proc, m *vm.Machine) *vm.Trap {
			_, tr := p.TapeOutput(m, TapeWrite, abi.FdStdout, []byte("42\n"))
			return tr
		}},
		{"other bytes written", 3, func(p *Proc, m *vm.Machine) *vm.Trap {
			_, tr := p.TapeOutput(m, TapeWrite, 5, []byte("43\n"))
			return tr
		}},
		{"another context count", 4, func(p *Proc, m *vm.Machine) *vm.Trap { _, tr := p.allocCtx(3, m); return tr }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			steps, p := replayHand(t, tape, sent, c.at, c.tamper)
			if _, departed := p.Replayed(); steps != c.at || !departed {
				t.Fatalf("stopped at step %d (departed=%v), want a departure at step %d", steps, departed, c.at)
			}
		})
	}
	t.Run("exhausted tape", func(t *testing.T) {
		steps, p := replayHand(t, tape[:2], sent, -1, nil)
		if left, departed := p.Replayed(); steps != 2 || !departed || left != 0 {
			t.Fatalf("stopped at step %d with %d left (departed=%v), want a departure at step 2", steps, left, departed)
		}
	})
	t.Run("pull past the end returns at once", func(t *testing.T) {
		p := NewReplayProc(2, Config{}, 0, nil, 0)
		done := make(chan *vm.Trap, 1)
		go func() { _, _, tr := p.pull(&vm.Machine{}); done <- tr }()
		select {
		case tr := <-done:
			if tr == nil || tr.Kind != vm.TrapKilled {
				t.Fatalf("pull on an empty tape returned %v", tr)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("pull on an empty tape blocked")
		}
	})
}
