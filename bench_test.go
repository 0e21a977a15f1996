// Package repro_test is the benchmark harness: one benchmark per table
// and figure of the paper, plus micro-benchmarks of the substrates and
// ablation benchmarks for the design choices called out in DESIGN.md.
//
// The per-table benchmarks run reduced campaigns (a handful of
// injections per region) so `go test -bench=.` finishes in minutes; the
// full-scale regeneration, with paper-sized sample counts, is
// `go run ./cmd/faultcampaign -n 500` (Tables 2-4),
// `go run ./cmd/profileapps` (Table 1) and
// `go run ./cmd/memtrace` (Tables 5-7).  Benchmarks report the headline
// quantity of their table as a custom metric, so shape regressions are
// visible in benchmark diffs.
package repro_test

import (
	"sync"
	"testing"
	"time"

	"mpifault/internal/abi"
	"mpifault/internal/analysis"
	"mpifault/internal/apps"
	"mpifault/internal/asm"
	"mpifault/internal/classify"
	"mpifault/internal/cluster"
	"mpifault/internal/core"
	"mpifault/internal/image"
	"mpifault/internal/isa"
	"mpifault/internal/mpi"
	"mpifault/internal/profile"
	"mpifault/internal/rng"
	"mpifault/internal/sampling"
	"mpifault/internal/trace"
	"mpifault/internal/vm"
)

var (
	imageCache   = map[string]*image.Image{}
	imageCacheMu sync.Mutex
)

func builtApp(b *testing.B, name string) (*image.Image, apps.Config) {
	b.Helper()
	a, err := apps.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	imageCacheMu.Lock()
	defer imageCacheMu.Unlock()
	if im, ok := imageCache[name]; ok {
		return im, a.Default
	}
	im, err := a.Build(a.Default)
	if err != nil {
		b.Fatal(err)
	}
	imageCache[name] = im
	return im, a.Default
}

// --- Table 1: per-process profiles ---

func BenchmarkTable1Profiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var camHeader float64
		for _, name := range []string{"wavetoy", "minimd", "minicam"} {
			im, cfg := builtApp(b, name)
			p, err := profile.Measure(name, im, cfg.Ranks, mpi.Config{})
			if err != nil {
				b.Fatal(err)
			}
			if name == "minicam" {
				camHeader = p.HeaderPct
			}
		}
		b.ReportMetric(camHeader, "cam-header-%")
	}
}

// --- Tables 2-4: fault-injection campaigns ---

func benchCampaign(b *testing.B, name string, injections int) {
	im, cfg := builtApp(b, name)
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.Config{
			Image: im, Ranks: cfg.Ranks,
			Injections: injections, Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		reg, _ := res.Tally(core.RegionRegularReg)
		msg, _ := res.Tally(core.RegionMessage)
		b.ReportMetric(reg.ErrorRate(), "reg-error-%")
		b.ReportMetric(msg.ErrorRate(), "msg-error-%")
	}
}

// BenchmarkCampaign is the macro benchmark for the execution-acceleration
// layer: a fixed-seed reduced campaign (all eight regions) over wavetoy.
// Identical seeds make the before/after numbers in BENCH_vm.json directly
// comparable — and the tallies must be bit-identical across the
// predecode/COW optimisation.
func BenchmarkCampaign(b *testing.B) {
	im, cfg := builtApp(b, "wavetoy")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.Config{
			Image: im, Ranks: cfg.Ranks,
			Injections: 4, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		reg, _ := res.Tally(core.RegionRegularReg)
		b.ReportMetric(reg.ErrorRate(), "reg-error-%")
	}
}

// BenchmarkCampaignScratch / BenchmarkCampaignCheckpointed measure the
// golden-run checkpointing optimization: the identical fixed-seed
// campaign with every experiment started from t=0 versus from the latest
// checkpoint preceding its injection trigger.  The tallies are
// bit-identical (the differential test asserts it on the artifacts);
// only the wall clock and the per-experiment allocations may differ.
// BENCH_campaign.json records the before/after pair.
func benchCampaignCheckpointing(b *testing.B, interval uint64) {
	im, cfg := builtApp(b, "wavetoy")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.Config{
			Image: im, Ranks: cfg.Ranks,
			Injections: 6, Seed: 7,
			CheckpointInterval: interval,
		})
		if err != nil {
			b.Fatal(err)
		}
		if st := res.Checkpoints; st != nil && st.Taken > 0 {
			b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses), "ckpt-hit-ratio")
		}
	}
}

func BenchmarkCampaignScratch(b *testing.B) { benchCampaignCheckpointing(b, 0) }
func BenchmarkCampaignCheckpointed(b *testing.B) {
	benchCampaignCheckpointing(b, core.DefaultCheckpointInterval)
}

// BenchmarkCampaignFixedN / BenchmarkCampaignAdaptive measure the
// adaptive sequential-stopping optimization at a reduced contract
// (d=9.8% at 95% -> cap 100/region) over one hot stratum (registers,
// p~0.5, runs to the cap) and one quiet one (BSS, closes at its
// AVF-sized pilot).  The adaptive run executes a strict per-region
// prefix of the fixed design (TestAdaptiveMatchesFixedCampaign asserts
// it), so only the spend — reported as the experiments metric — and the
// wall clock differ.  BENCH_campaign.json records the pair,
// informationally: campaign wall clocks are noisy.
const benchAdaptiveTargetD = 0.098

var benchAdaptiveRegions = []core.Region{core.RegionRegularReg, core.RegionBSS}

func benchAdaptivePriors(b *testing.B, im *image.Image) map[core.Region]float64 {
	b.Helper()
	labels, err := analysis.AVFPriors(im)
	if err != nil {
		b.Fatal(err)
	}
	priors, err := core.PriorsFromLabels(labels)
	if err != nil {
		b.Fatal(err)
	}
	return priors
}

func BenchmarkCampaignFixedN(b *testing.B) {
	im, cfg := builtApp(b, "wavetoy")
	cap, err := sampling.SampleSize(core.DefaultConfidence, benchAdaptiveTargetD)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.Config{
			Image: im, Ranks: cfg.Ranks, Regions: benchAdaptiveRegions,
			Injections: cap, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		executed := 0
		for _, r := range benchAdaptiveRegions {
			t, _ := res.Tally(r)
			executed += t.Executions
		}
		b.ReportMetric(float64(executed), "experiments")
	}
}

func BenchmarkCampaignAdaptive(b *testing.B) {
	im, cfg := builtApp(b, "wavetoy")
	priors := benchAdaptivePriors(b, im)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.Config{
			Image: im, Ranks: cfg.Ranks, Regions: benchAdaptiveRegions,
			Seed: 7, Adaptive: true, TargetHalfWidth: benchAdaptiveTargetD,
			AVFPriors: priors,
		})
		if err != nil {
			b.Fatal(err)
		}
		st := res.Adaptive
		b.ReportMetric(float64(st.TotalExecuted()), "experiments")
		b.ReportMetric(float64(st.TotalExecuted())/float64(st.FixedTotal()), "spend-ratio")
	}
}

func BenchmarkTable2Wavetoy(b *testing.B) { benchCampaign(b, "wavetoy", 4) }
func BenchmarkTable3NAMD(b *testing.B)    { benchCampaign(b, "minimd", 4) }
func BenchmarkTable4CAM(b *testing.B)     { benchCampaign(b, "minicam", 4) }

// --- Tables 5-7: working-set traces ---

func benchTrace(b *testing.B, name string) {
	im, cfg := builtApp(b, name)
	for i := 0; i < b.N; i++ {
		tr := trace.New()
		res := cluster.Run(cluster.Job{
			Image: im, Size: cfg.Ranks, Tracer: tr, TraceRank: 1,
			WallLimit: 60 * time.Second,
		})
		if res.HangDetected {
			b.Fatalf("traced run hung: %s", res.HangCause)
		}
		s := tr.Analyze(im, res.Ranks[1].HeapUsed, 16)
		// Headline: the steady-state (mid-run) text working set share.
		b.ReportMetric(s.TextPct[len(s.TextPct)/2], "text-ws-%")
	}
}

func BenchmarkTable5TraceWavetoy(b *testing.B) { benchTrace(b, "wavetoy") }
func BenchmarkTable6TraceNAMD(b *testing.B)    { benchTrace(b, "minimd") }
func BenchmarkTable7TraceCAM(b *testing.B)     { benchTrace(b, "minicam") }

// --- substrate micro-benchmarks ---

// BenchmarkVMExecution measures raw interpreter throughput on a tight
// mixed integer/FP loop (instructions per second drives campaign cost).
func BenchmarkVMExecution(b *testing.B) {
	ab := asm.NewBuilder()
	m := ab.Module("bench", image.OwnerUser)
	m.BSS("scratch", 16)
	f := m.Func("main")
	f.Movi(isa.R1, 0)
	f.Movi(isa.R2, 1<<30) // effectively endless; the budget stops us
	loop := f.NewLabel()
	f.Label(loop)
	f.Addi(isa.R1, isa.R1, 1)
	f.Xori(isa.R3, isa.R1, 0x55)
	f.FldConst(1.5)
	f.FldConst(2.5)
	f.Fmulp()
	f.FstpSym("scratch", 0)
	f.Cmp(isa.R1, isa.R2)
	f.Blt(loop)
	f.Movi(isa.R0, 0)
	f.Sys(abi.SysExit)
	im, err := ab.Link(asm.LinkConfig{})
	if err != nil {
		b.Fatal(err)
	}
	const budget = 2_000_000
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		mach := vm.New(im)
		mach.Handler = exitOnlyHandler{}
		mach.Run(budget)
		instrs += mach.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instr/s")
}

type exitOnlyHandler struct{}

func (exitOnlyHandler) Syscall(m *vm.Machine, num int32) *vm.Trap {
	return &vm.Trap{Kind: vm.TrapExit, PC: m.PC}
}

// BenchmarkGoldenRuns measures full fault-free job execution per app.
func BenchmarkGoldenRuns(b *testing.B) {
	for _, name := range []string{"wavetoy", "minimd", "minicam"} {
		name := name
		b.Run(name, func(b *testing.B) {
			im, cfg := builtApp(b, name)
			for i := 0; i < b.N; i++ {
				res := cluster.Run(cluster.Job{Image: im, Size: cfg.Ranks,
					WallLimit: 60 * time.Second})
				if res.HangDetected {
					b.Fatal("hang")
				}
			}
		})
	}
}

// BenchmarkPacketCodec measures Channel-layer marshal+parse throughput.
func BenchmarkPacketCodec(b *testing.B) {
	payload := make([]byte, 2048)
	p := &mpi.Packet{Kind: mpi.KindEager, Src: 3, Dst: 1, Tag: 7,
		Comm: 91, Dtype: 1, Payload: payload}
	b.SetBytes(int64(mpi.HeaderBytes + len(payload)))
	for i := 0; i < b.N; i++ {
		raw := p.Marshal()
		q, drop, err := mpi.ParsePacket(raw, 1, 8)
		if err != nil || drop || q.Tag != 7 {
			b.Fatal("codec mismatch")
		}
	}
}

// BenchmarkInjectionSetup measures the cost of arming and firing one
// memory fault relative to an unperturbed run.
func BenchmarkInjectionSetup(b *testing.B) {
	im, cfg := builtApp(b, "wavetoy")
	dict := core.NewDictionary(im)
	r := rng.New(99)
	for i := 0; i < b.N; i++ {
		job := cluster.Job{Image: im, Size: cfg.Ranks, WallLimit: 30 * time.Second,
			Budget: 10_000_000}
		job.Setup = func(rank int, m *vm.Machine, p *mpi.Proc) {
			if rank == 2 {
				m.TriggerAt = 5000
				m.TriggerFn = func(m *vm.Machine) *vm.Trap {
					core.ApplyStaticFault(m, dict, core.RegionData, r)
					return nil
				}
			}
		}
		cluster.Run(job)
	}
}

// --- ablation benchmarks (design decisions from DESIGN.md §5) ---

// BenchmarkAblationChecksum quantifies minimd's checksum cost: golden
// instruction counts with and without the application-level checks
// (paper: ~3 % overhead for NAMD).
func BenchmarkAblationChecksum(b *testing.B) {
	a, err := apps.Get("minimd")
	if err != nil {
		b.Fatal(err)
	}
	on := a.Default
	off := a.Default
	off.Checksums = false
	imOn, err := a.Build(on)
	if err != nil {
		b.Fatal(err)
	}
	imOff, err := a.Build(off)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		gOn, err := core.RunGolden(imOn, on.Ranks, mpi.Config{}, 30*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		gOff, err := core.RunGolden(imOff, off.Ranks, mpi.Config{}, 30*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		over := 100 * (float64(gOn.MaxInstrs()) - float64(gOff.MaxInstrs())) /
			float64(gOff.MaxInstrs())
		b.ReportMetric(over, "overhead-%")
	}
}

// BenchmarkAblationEagerThreshold sweeps the rendezvous threshold and
// reports the resulting header share of wavetoy traffic (design decision
// 1: the threshold sets the control/data mix).
func BenchmarkAblationEagerThreshold(b *testing.B) {
	for _, thresh := range []uint32{256, 1024, 4096} {
		thresh := thresh
		b.Run(byteSize(thresh), func(b *testing.B) {
			im, cfg := builtApp(b, "wavetoy")
			for i := 0; i < b.N; i++ {
				p, err := profile.Measure("wavetoy", im, cfg.Ranks,
					mpi.Config{EagerThreshold: thresh})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(p.HeaderPct, "header-%")
			}
		})
	}
}

// BenchmarkAblationOutputFormat compares silent-corruption visibility
// between wavetoy's plain-text output and a binary dump (§7: "a binary
// output format would detect more cases of incorrect output").  The
// metric is the fraction of message-payload faults classified Incorrect.
func BenchmarkAblationOutputFormat(b *testing.B) {
	a, err := apps.Get("wavetoy")
	if err != nil {
		b.Fatal(err)
	}
	for _, binary := range []bool{false, true} {
		binary := binary
		name := "text"
		if binary {
			name = "binary"
		}
		b.Run(name, func(b *testing.B) {
			cfg := a.Default
			cfg.BinaryOutput = binary
			im, err := a.Build(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.Config{
					Image: im, Ranks: cfg.Ranks,
					Injections: 20, Seed: 5,
					Regions: []core.Region{core.RegionMessage},
				})
				if err != nil {
					b.Fatal(err)
				}
				t, _ := res.Tally(core.RegionMessage)
				b.ReportMetric(t.ManifestPercent(classify.Incorrect), "incorrect-%")
				b.ReportMetric(t.ErrorRate(), "error-%")
			}
		})
	}
}

// BenchmarkAblationIterationCount sweeps the step count for the §6.2
// error-amplification claim ("executing more Cactus Wavetoy iterations
// will almost always yield incorrect outputs").  Note the reproduction's
// negative result, recorded in EXPERIMENTS.md: our analogue's linear
// wave kernel conserves perturbation energy, so the measured error rate
// stays flat with step count — the amplification needs the nonlinearity
// of the real Cactus kernels.
func BenchmarkAblationIterationCount(b *testing.B) {
	a, err := apps.Get("wavetoy")
	if err != nil {
		b.Fatal(err)
	}
	for _, steps := range []int32{4, 12, 36} {
		steps := steps
		b.Run(stepName(steps), func(b *testing.B) {
			cfg := a.Default
			cfg.Steps = steps
			im, err := a.Build(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.Config{
					Image: im, Ranks: cfg.Ranks,
					Injections: 20, Seed: 9,
					Regions: []core.Region{core.RegionMessage},
				})
				if err != nil {
					b.Fatal(err)
				}
				t, _ := res.Tally(core.RegionMessage)
				b.ReportMetric(t.ErrorRate(), "error-%")
			}
		})
	}
}

// BenchmarkAblationRegisterPressure reproduces §6.1.1's observation
// (after Springer) that code compiled without register optimizations is
// more robust to register upsets: the spilled wavetoy kernel reloads its
// state from memory every iteration, so register faults have a smaller
// live window.  Metrics: register-fault error rate for each variant and
// the runtime cost of spilling.
func BenchmarkAblationRegisterPressure(b *testing.B) {
	a, err := apps.Get("wavetoy")
	if err != nil {
		b.Fatal(err)
	}
	for _, spill := range []bool{false, true} {
		spill := spill
		name := "optimized"
		if spill {
			name = "spilled"
		}
		b.Run(name, func(b *testing.B) {
			cfg := a.Default
			cfg.SpillRegisters = spill
			im, err := a.Build(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.Config{
					Image: im, Ranks: cfg.Ranks,
					Injections: 60, Seed: 21,
					Regions: []core.Region{core.RegionRegularReg},
				})
				if err != nil {
					b.Fatal(err)
				}
				t, _ := res.Tally(core.RegionRegularReg)
				b.ReportMetric(t.ErrorRate(), "reg-error-%")
				b.ReportMetric(float64(res.Golden.MaxInstrs()), "golden-instrs")
			}
		})
	}
}

func byteSize(n uint32) string {
	switch {
	case n >= 1024:
		return string(rune('0'+n/1024)) + "KiB"
	default:
		return "256B"
	}
}

func stepName(s int32) string {
	switch s {
	case 4:
		return "steps4"
	case 12:
		return "steps12"
	default:
		return "steps36"
	}
}
