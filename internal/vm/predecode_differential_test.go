package vm_test

// Differential check for the execution tiers: the compiled superblock
// tier, the per-instruction interpreter over the predecoded table, and
// full byte-decode on every fetch must be indistinguishable, instruction
// for instruction — on clean runs of all three guest applications and on
// runs whose text segment is corrupted mid-flight by the injector's
// RawWrite (the case the dirty-slot bitmap and block invalidation exist
// for).

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mpifault/internal/apps"
	"mpifault/internal/cluster"
	"mpifault/internal/mpi"
	"mpifault/internal/vm"
)

// pcTrace folds every executed PC into an order-sensitive FNV-style hash,
// so two runs agree only if they fetch the same instructions in the same
// order.
type pcTrace struct {
	hash  uint64
	count uint64
}

func (t *pcTrace) Exec(pc uint32) {
	t.hash = (t.hash ^ uint64(pc)) * 1099511628211
	t.count++
}

func (t *pcTrace) Load(addr uint32, size int)  {}
func (t *pcTrace) Store(addr uint32, size int) {}

// diffRun is everything observable about one execution mode.
type diffRun struct {
	instrs []uint64
	traps  []string
	output []byte
	hash   uint64
	fetch  uint64
	hung   bool
}

// Execution modes under test.
const (
	modeSuperblock = iota // compiled superblock tier (the default)
	modeInterp            // per-instruction Step over the predecoded table
	modeByteDecode        // full byte-decode on every fetch
)

// runDiff executes the app once in the given execution mode, optionally
// with a set of text bits flipped on rank 1 after a fixed instruction
// count.
func runDiff(t *testing.T, name string, mode int, flipText bool) diffRun {
	t.Helper()
	a, err := apps.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	im, err := a.Build(a.Default)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	tr := &pcTrace{}
	job := cluster.Job{
		Image:     im,
		Size:      a.Default.Ranks,
		WallLimit: 60 * time.Second,
		Tracer:    tr,
		TraceRank: 1,
		Setup: func(rank int, m *vm.Machine, _ *mpi.Proc) {
			switch mode {
			case modeInterp:
				m.DisableSuperblocks()
			case modeByteDecode:
				m.DisablePredecode()
			}
			if flipText && rank == 1 {
				m.TriggerAt = 5000
				m.TriggerFn = flipTextBits
			}
		},
	}
	res := cluster.Run(job)
	out := diffRun{
		output: res.CanonicalOutput(),
		hash:   tr.hash,
		fetch:  tr.count,
		hung:   res.HangDetected,
	}
	for r := range res.Ranks {
		out.instrs = append(out.instrs, res.Ranks[r].Instrs)
		trap := "none"
		if tp := res.Ranks[r].Trap; tp != nil {
			trap = fmt.Sprintf("%v@%08x", tp.Kind, tp.PC)
		}
		out.traps = append(out.traps, trap)
	}
	return out
}

// flipTextBits corrupts a deterministic spread of text bytes, covering
// opcode, operand and immediate slots of several instruction words.
func flipTextBits(m *vm.Machine) *vm.Trap {
	lo, hi, ok := m.SegmentRange("text")
	if !ok {
		panic("no text segment")
	}
	size := hi - lo
	for i, spec := range []struct {
		off uint32 // fraction of the text segment, in 1/64ths
		bit uint
	}{
		{8, 0}, {19, 7}, {32, 3}, {45, 1}, {57, 5},
	} {
		addr := lo + spec.off*(size/64)
		addr += uint32(i) % 8 // stagger across the 8 slot bytes
		b, ok := m.RawRead(addr, 1)
		if !ok {
			panic("text read failed")
		}
		b[0] ^= 1 << spec.bit
		if !m.RawWrite(addr, b) {
			panic("text write failed")
		}
	}
	return nil
}

func (a diffRun) compare(t *testing.T, b diffRun, label string) {
	t.Helper()
	if a.hung != b.hung {
		t.Errorf("%s: hang disagreement: predecoded=%v byte-decoded=%v", label, a.hung, b.hung)
	}
	for r := range a.instrs {
		if a.instrs[r] != b.instrs[r] {
			t.Errorf("%s: rank %d retired %d instrs predecoded, %d byte-decoded",
				label, r, a.instrs[r], b.instrs[r])
		}
		if a.traps[r] != b.traps[r] {
			t.Errorf("%s: rank %d trap %s predecoded, %s byte-decoded",
				label, r, a.traps[r], b.traps[r])
		}
	}
	if !bytes.Equal(a.output, b.output) {
		t.Errorf("%s: canonical output differs (%d vs %d bytes)",
			label, len(a.output), len(b.output))
	}
	if a.fetch != b.fetch || a.hash != b.hash {
		t.Errorf("%s: traced rank fetched %d PCs (hash %016x) predecoded, %d (hash %016x) byte-decoded",
			label, a.fetch, a.hash, b.fetch, b.hash)
	}
}

func TestPredecodeDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all three guest apps three times")
	}
	for _, name := range []string{"wavetoy", "minimd", "minicam"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sb := runDiff(t, name, modeSuperblock, false)
			interp := runDiff(t, name, modeInterp, false)
			raw := runDiff(t, name, modeByteDecode, false)
			sb.compare(t, interp, "clean superblock-vs-interp")
			sb.compare(t, raw, "clean superblock-vs-bytedecode")
			if sb.fetch == 0 {
				t.Fatal("tracer saw no fetches; test is vacuous")
			}
		})
	}
}

func TestPredecodeDifferentialAfterTextFlip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all three guest apps three times")
	}
	for _, name := range []string{"wavetoy", "minimd", "minicam"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sb := runDiff(t, name, modeSuperblock, true)
			interp := runDiff(t, name, modeInterp, true)
			raw := runDiff(t, name, modeByteDecode, true)
			sb.compare(t, interp, "text-flip superblock-vs-interp")
			sb.compare(t, raw, "text-flip superblock-vs-bytedecode")
		})
	}
}
