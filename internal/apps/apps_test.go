package apps

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"mpifault/internal/cluster"
	"mpifault/internal/vm"
)

// runGolden builds and executes an app with its default configuration.
func runGolden(t *testing.T, name string) *cluster.Result {
	t.Helper()
	a, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return runBuilt(t, name, a, a.Default)
}

// runBuilt builds and executes an app at cfg, failing t unless every
// rank exits cleanly.
func runBuilt(t *testing.T, name string, a App, cfg Config) *cluster.Result {
	t.Helper()
	im, err := a.Build(cfg)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	res := cluster.Run(cluster.Job{Image: im, Size: cfg.Ranks, Budget: 500_000_000})
	if res.HangDetected {
		t.Fatalf("%s: hang: %s", name, res.HangCause)
	}
	for r, rr := range res.Ranks {
		if rr.Trap == nil || rr.Trap.Kind != vm.TrapExit || rr.Trap.Code != 0 {
			t.Fatalf("%s: rank %d did not exit cleanly: %v (stderr: %s)",
				name, r, rr.Trap, res.Stderr[r])
		}
	}
	return res
}

func TestWavetoyGolden(t *testing.T) {
	res := runGolden(t, "wavetoy")
	if !strings.Contains(string(res.Stdout[0]), "wavetoy: evolution complete") {
		t.Fatalf("stdout = %q", res.Stdout[0])
	}
	out := res.Files["wavetoy.out"]
	if len(out) == 0 {
		t.Fatal("missing wavetoy.out")
	}
	lines := bytes.Count(out, []byte("\n"))
	if want := 8 * 256; lines != want {
		t.Fatalf("wavetoy.out has %d lines, want %d", lines, want)
	}
	// The pulse keeps most of the field near zero (§6.2: "most transferred
	// data are very close to zero").
	small := 0
	for _, ln := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		v, err := strconv.ParseFloat(ln, 64)
		if err != nil {
			t.Fatalf("non-numeric output line %q", ln)
		}
		if v < 1e-4 && v > -1e-4 {
			small++
		}
	}
	if small < lines/2 {
		t.Fatalf("only %d/%d near-zero values; pulse should be localized", small, lines)
	}
	// Traffic must be data-dominated (Table 1: 94%% user for Wavetoy).
	var agg struct{ hdr, tot float64 }
	for _, rr := range res.Ranks {
		agg.hdr += float64(rr.Stats.HeaderBytes)
		agg.tot += float64(rr.Stats.TotalBytes())
	}
	if pct := 100 * agg.hdr / agg.tot; pct > 20 {
		t.Fatalf("wavetoy header share %.1f%%, want small", pct)
	}
}

func TestMiniMDGolden(t *testing.T) {
	res := runGolden(t, "minimd")
	out := string(res.Stdout[0])
	if !strings.Contains(out, "STEP 0 ENERGY ") || !strings.Contains(out, "STEP 9 ENERGY ") {
		t.Fatalf("console output missing step lines: %q", out)
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "nan") {
		t.Fatalf("golden run produced NaN: %q", out)
	}
}

// TestMiniMDGoldenAtScale: positions start at their global particle
// index, so minimd's sanity bound must grow with the world — these
// worlds of 1 000 particles and more used to abort fault-free.
func TestMiniMDGoldenAtScale(t *testing.T) {
	a, err := Get("minimd")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		ranks int
		scale int32
	}{{11, 96}, {16, 96}, {64, 8}, {128, 8}} {
		cfg := a.Default
		cfg.Ranks, cfg.Scale = w.ranks, w.scale
		runBuilt(t, fmt.Sprintf("minimd %d×%d", w.ranks, w.scale), a, cfg)
	}
}

func TestMiniCAMGolden(t *testing.T) {
	res := runGolden(t, "minicam")
	if !strings.Contains(string(res.Stdout[0]), "minicam: simulation complete") {
		t.Fatalf("stdout = %q", res.Stdout[0])
	}
	if len(res.Files["minicam.out"]) == 0 {
		t.Fatal("missing minicam.out")
	}
	// Traffic must be control-dominated (Table 1: 63%% header for CAM).
	var hdr, tot float64
	for _, rr := range res.Ranks {
		hdr += float64(rr.Stats.HeaderBytes)
		tot += float64(rr.Stats.TotalBytes())
	}
	if pct := 100 * hdr / tot; pct < 40 {
		t.Fatalf("minicam header share %.1f%%, want control-dominated", pct)
	}
}

func TestGoldenRunsDeterministic(t *testing.T) {
	for _, name := range []string{"wavetoy", "minimd", "minicam"} {
		a := runGolden(t, name).CanonicalOutput()
		b := runGolden(t, name).CanonicalOutput()
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: canonical output differs between identical runs", name)
		}
	}
}
