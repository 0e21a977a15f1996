package core

import (
	"strings"
	"testing"
	"time"

	"mpifault/internal/classify"
	"mpifault/internal/cluster"
	"mpifault/internal/isa"
	"mpifault/internal/mpi"
	"mpifault/internal/rng"
	"mpifault/internal/vm"
)

// Directed-fault tests: instead of sampling, each test plants one
// hand-chosen fault whose causal chain the paper describes, and asserts
// the expected manifestation.

func runWavetoyWithFault(t *testing.T, setup func(rank int, m *vm.Machine, p *mpi.Proc)) (*cluster.Result, []byte) {
	t.Helper()
	im, ranks := buildApp(t, "wavetoy")
	golden, err := RunGolden(im, ranks, mpi.Config{}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	res := cluster.Run(cluster.Job{
		Image: im, Size: ranks,
		Budget: golden.MaxInstrs() * 4,
		Setup:  setup,
	})
	return res, golden.Output
}

func TestDirectedPCCorruptionCrashes(t *testing.T) {
	// §6.1.1: regular-register faults are the most violent.  Flipping a
	// high bit of the PC mid-run lands outside any mapped segment.
	res, golden := runWavetoyWithFault(t, func(rank int, m *vm.Machine, p *mpi.Proc) {
		if rank != 2 {
			return
		}
		m.TriggerAt = 20_000
		m.TriggerFn = func(m *vm.Machine) *vm.Trap { m.PC ^= 1 << 30; return nil }
	})
	if got := classify.Classify(res, golden); got != classify.Crash {
		t.Fatalf("outcome = %v, want Crash", got)
	}
}

func TestDirectedLoopCounterHang(t *testing.T) {
	// A corrupted branch target / loop state that re-enters the same
	// code forever is the livelock mode; force it by pinning the PC in a
	// tight loop via flag corruption is fragile, so instead corrupt the
	// step counter's storage through a register used to bound the loop:
	// simply jam the PC onto itself.
	res, golden := runWavetoyWithFault(t, func(rank int, m *vm.Machine, p *mpi.Proc) {
		if rank != 1 {
			return
		}
		m.TriggerAt = 30_000
		m.TriggerFn = func(m *vm.Machine) *vm.Trap {
			// Overwrite the next instruction with jmp-to-self: the
			// classic non-terminating mode (§7's progress discussion).
			in := isa.Instr{Op: isa.OpJmp, Imm: int32(m.PC)}
			m.RawWrite(m.PC, in.Bytes())
			return nil
		}
	})
	if got := classify.Classify(res, golden); got != classify.Hang {
		t.Fatalf("outcome = %v, want Hang", got)
	}
}

func TestDirectedMessageTagFlipHangs(t *testing.T) {
	// §3.3/§6.2: corrupting a matching field silently loses the message;
	// the receiver waits forever.
	im, ranks := buildApp(t, "wavetoy")
	golden, err := RunGolden(im, ranks, mpi.Config{}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	res := cluster.Run(cluster.Job{
		Image: im, Size: ranks,
		Budget: golden.MaxInstrs() * 4,
		Setup: func(rank int, m *vm.Machine, p *mpi.Proc) {
			if rank != 3 {
				return
			}
			first := true
			p.RecvHook = func(pkt []byte) {
				if first && len(pkt) >= 20 {
					pkt[16] ^= 0x08 // tag field low byte
					first = false
				}
			}
		},
	})
	if got := classify.Classify(res, golden.Output); got != classify.Hang {
		t.Fatalf("outcome = %v, want Hang", got)
	}
}

func TestDirectedPayloadLSBMaskedByTextOutput(t *testing.T) {
	// §6.2: flipping a low-order mantissa bit of a near-zero float is
	// invisible at six decimal places of text output.
	im, ranks := buildApp(t, "wavetoy")
	golden, err := RunGolden(im, ranks, mpi.Config{}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	res := cluster.Run(cluster.Job{
		Image: im, Size: ranks,
		Budget: golden.MaxInstrs() * 4,
		Setup: func(rank int, m *vm.Machine, p *mpi.Proc) {
			if rank != 4 {
				return
			}
			first := true
			p.RecvHook = func(pkt []byte) {
				// Flip the LSB of the first payload double of the first
				// large data message.
				if first && len(pkt) > 56 {
					pkt[48] ^= 0x01
					first = false
				}
			}
		},
	})
	if got := classify.Classify(res, golden.Output); got != classify.Correct {
		t.Fatalf("outcome = %v, want Correct (masked)", got)
	}
}

func TestDirectedStackRetAddrCorruption(t *testing.T) {
	// Corrupting a return address high bit sends RET into the void.
	res, golden := runWavetoyWithFault(t, func(rank int, m *vm.Machine, p *mpi.Proc) {
		if rank != 0 {
			return
		}
		m.TriggerAt = 25_000
		m.TriggerFn = func(m *vm.Machine) *vm.Trap {
			frames := m.WalkFrames()
			if len(frames) == 0 {
				return nil
			}
			b, ok := m.RawRead(frames[0].FP+4, 4)
			if !ok {
				return nil
			}
			b[3] ^= 0x40 // high bit of the return address
			m.RawWrite(frames[0].FP+4, b)
			return nil
		}
	})
	got := classify.Classify(res, golden)
	if got != classify.Crash && got != classify.Hang {
		t.Fatalf("outcome = %v, want Crash or Hang", got)
	}
}

func TestDirectedFPRegFlipMostlyBenign(t *testing.T) {
	// §6.1.1: most FP register faults do not manifest because few slots
	// are live.  Flip a bit in a physical slot far from the stack top.
	res, golden := runWavetoyWithFault(t, func(rank int, m *vm.Machine, p *mpi.Proc) {
		if rank != 5 {
			return
		}
		m.TriggerAt = 40_000
		m.TriggerFn = func(m *vm.Machine) *vm.Trap {
			top := m.FP.Top()
			dead := (top + 6) & 7 // almost certainly an empty slot
			m.FP.Regs[dead] = m.FP.Regs[dead] + 1e18
			return nil
		}
	})
	if got := classify.Classify(res, golden); got != classify.Correct {
		t.Fatalf("outcome = %v, want Correct (dead slot)", got)
	}
}

func TestDirectedMinicamMoistureCheck(t *testing.T) {
	// §6.2: CAM's moisture floor check converts a corrupted moisture
	// field into a warning + abort (App Detected).  Write a negative
	// value straight into the moisture field via the heap.
	im, ranks := buildApp(t, "minicam")
	golden, err := RunGolden(im, ranks, mpi.Config{}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	res := cluster.Run(cluster.Job{
		Image: im, Size: ranks,
		Budget: golden.MaxInstrs() * 4,
		Setup: func(rank int, m *vm.Machine, p *mpi.Proc) {
			if rank != 2 {
				return
			}
			m.TriggerAt = golden.Instrs[2] / 2
			m.TriggerFn = func(m *vm.Machine) *vm.Trap {
				// Find a user heap chunk and flip the sign bit of many
				// doubles — some will be the moisture field.
				for _, c := range m.Heap.Chunks() {
					if !c.Valid || c.Tag != 0x55534552 {
						continue
					}
					for off := uint32(7); off < c.Size; off += 8 {
						b, ok := m.RawRead(c.Payload+off, 1)
						if !ok {
							break
						}
						m.RawWrite(c.Payload+off, []byte{b[0] | 0x80})
					}
				}
				return nil
			}
		},
	})
	got := classify.Classify(res, golden.Output)
	if got != classify.AppDetected {
		t.Fatalf("outcome = %v, want AppDetected (stderr: %s)", got, res.Stderr[2])
	}
	if !strings.Contains(string(res.Stderr[2]), "moisture") {
		t.Fatalf("stderr = %q", res.Stderr[2])
	}
}

func TestDirectedMinimdChecksumCatchesPayloadFlip(t *testing.T) {
	// §6.2: NAMD's checksums detect corruption of covered payload words.
	im, ranks := buildApp(t, "minimd")
	golden, err := RunGolden(im, ranks, mpi.Config{}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	res := cluster.Run(cluster.Job{
		Image: im, Size: ranks,
		Budget: golden.MaxInstrs() * 4,
		Setup: func(rank int, m *vm.Machine, p *mpi.Proc) {
			if rank != 1 {
				return
			}
			first := true
			p.RecvHook = func(pkt []byte) {
				// Corrupt the first covered payload double of the first
				// big data message (headers are 48 bytes; block data
				// starts right after; flip a high mantissa bit).
				if first && len(pkt) > 120 {
					pkt[54] ^= 0x20
					first = false
				}
			}
		},
	})
	got := classify.Classify(res, golden.Output)
	if got != classify.AppDetected {
		t.Fatalf("outcome = %v, want AppDetected", got)
	}
	joined := ""
	for _, e := range res.Stderr {
		joined += string(e)
	}
	if !strings.Contains(joined, "checksum") {
		t.Fatalf("stderr lacks checksum diagnostic: %q", joined)
	}
}

// TestDirectedSeedsReproduce ensures a sampled experiment replays
// identically from its (region, index) derivation.
func TestDirectedSeedsReproduce(t *testing.T) {
	im, ranks := buildApp(t, "wavetoy")
	golden, err := RunGolden(im, ranks, mpi.Config{}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	dict := NewDictionary(im)
	run := func() classify.Outcome {
		e := &Experiment{Region: RegionRegularReg, Index: 4}
		cfg := Config{Image: im, Ranks: ranks}
		cctx := &campaignCtx{
			cfg: &cfg, golden: golden, dict: dict,
			budget: golden.MaxInstrs() * 4,
			met:    newCampaignMeters(nil),
		}
		sc := &expScratch{}
		rng.New(77).DeriveInto(&sc.r, uint64(e.Region), uint64(e.Index))
		runOne(cctx, e, sc)
		return e.Outcome
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same experiment classified %v then %v", a, b)
	}
}
