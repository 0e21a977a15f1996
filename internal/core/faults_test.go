package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mpifault/internal/abi"
	"mpifault/internal/asm"
	"mpifault/internal/guest"
	"mpifault/internal/image"
	"mpifault/internal/isa"
	"mpifault/internal/rng"
	"mpifault/internal/vm"
)

// faultTestImage builds a small program with user and MPI symbols so the
// dictionary and fault appliers have realistic targets.
func faultTestImage(t testing.TB) *image.Image {
	t.Helper()
	b := asm.NewBuilder()
	guest.AddLibc(b)
	guest.AddLibMPI(b)
	m := b.Module("app", image.OwnerUser)
	m.DataI32("udata", 1, 2, 3, 4)
	m.BSS("ubss", 64)
	f := m.Func("main")
	f.Prologue(8)
	f.Movi(isa.R1, 5)
	f.Epilogue()
	im, err := b.Link(asm.LinkConfig{HeapSize: 1 << 20, StackSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestDictionaryExcludesMPISymbols(t *testing.T) {
	im := faultTestImage(t)
	d := NewDictionary(im)
	check := func(syms []image.Symbol, kind string) {
		if len(syms) == 0 {
			t.Fatalf("dictionary has no %s symbols", kind)
		}
		for _, s := range syms {
			if s.Owner != image.OwnerUser {
				t.Errorf("%s symbol %q is MPI-owned", kind, s.Name)
			}
			if strings.HasPrefix(s.Name, "MPI_") || strings.HasPrefix(s.Name, "__mpi") {
				t.Errorf("%s symbol %q looks like a library symbol", kind, s.Name)
			}
		}
	}
	check(d.Text, "text")
	check(d.Data, "data")
	check(d.BSS, "bss")
	// libc is user-owned (statically linked), so memcpy must be a target.
	found := false
	for _, s := range d.Text {
		if s.Name == "memcpy" {
			found = true
		}
	}
	if !found {
		t.Error("libc functions should be injectable user text")
	}
}

func TestDictionaryRandomAddressesInRange(t *testing.T) {
	im := faultTestImage(t)
	d := NewDictionary(im)
	r := rng.New(1)
	for i := 0; i < 500; i++ {
		addr, ok := d.RandText(r)
		if !ok {
			t.Fatal("no text target")
		}
		s, found := im.FindSymbol(addr)
		if !found || s.Kind != image.SymFunc || s.Owner != image.OwnerUser {
			t.Fatalf("text target %#x resolves to %+v", addr, s)
		}
		addr, ok = d.RandData(r)
		if !ok {
			t.Fatal("no data target")
		}
		if s, _ := im.FindSymbol(addr); s.Owner != image.OwnerUser {
			t.Fatalf("data target %#x in %+v", addr, s)
		}
	}
}

func TestApplyRegisterFaultFlipsOneBit(t *testing.T) {
	im := faultTestImage(t)
	for seed := uint64(0); seed < 200; seed++ {
		m := vm.New(im)
		before := snapshot(m)
		desc, site := ApplyRegisterFault(m, rng.New(seed))
		after := snapshot(m)
		if desc == "" {
			t.Fatal("no description")
		}
		var want Site
		var bit uint
		if _, err := fmt.Sscanf(desc, "flags bit %d", &bit); err == nil && bit >= isa.FlagsReadableBits {
			want.Kind = SiteWriteOnly
		}
		if site != want {
			t.Fatalf("seed %d: %s at %+v, want %+v", seed, desc, site, want)
		}
		diff := 0
		for i := range before {
			diff += popcount32(before[i] ^ after[i])
		}
		if diff != 1 {
			t.Fatalf("seed %d: flipped %d bits (%s)", seed, diff, desc)
		}
	}
}

func snapshot(m *vm.Machine) []uint32 {
	out := make([]uint32, 0, 10)
	out = append(out, m.Regs[:]...)
	out = append(out, m.PC, m.Flags)
	return out
}

func popcount32(v uint32) int {
	n := 0
	for v != 0 {
		n++
		v &= v - 1
	}
	return n
}

func TestApplyFPRegisterFaultFlipsOneBit(t *testing.T) {
	im := faultTestImage(t)
	for seed := uint64(0); seed < 200; seed++ {
		m := vm.New(im)
		m.FP.Regs[3] = 1.5
		before := fpSnapshot(m)
		desc, _ := ApplyFPRegisterFault(m, rng.New(seed))
		after := fpSnapshot(m)
		diff := 0
		for i := range before {
			diff += popcount64(before[i] ^ after[i])
		}
		if diff != 1 {
			t.Fatalf("seed %d: flipped %d bits (%s)", seed, diff, desc)
		}
	}
}

func fpSnapshot(m *vm.Machine) []uint64 {
	e := &m.FP
	out := make([]uint64, 0, 16)
	for _, v := range e.Regs {
		out = append(out, math.Float64bits(v))
	}
	out = append(out, uint64(e.CWD), uint64(e.SWD), uint64(e.TWD),
		uint64(e.FIP), uint64(e.FCS), uint64(e.FOO), uint64(e.FOS))
	return out
}

func popcount64(v uint64) int {
	n := 0
	for v != 0 {
		n++
		v &= v - 1
	}
	return n
}

func TestApplyStaticFaultHitsOnlyUserMemory(t *testing.T) {
	im := faultTestImage(t)
	d := NewDictionary(im)
	for seed := uint64(0); seed < 100; seed++ {
		for _, region := range []Region{RegionText, RegionData, RegionBSS} {
			m := vm.New(im)
			desc, site := ApplyStaticFault(m, d, region, rng.New(seed+uint64(region)*1000))
			if desc == "no target" {
				t.Fatalf("region %s: no target", region)
			}
			if want := fmt.Sprintf("%s 0x%08x", region, site.At); site.Kind != SiteMemory || !strings.HasPrefix(desc, want) {
				t.Fatalf("%s at %+v", desc, site)
			}
		}
	}
	// Text faults must never touch MPI stubs: compare the MPI text bytes
	// before and after many injections.
	m := vm.New(im)
	s, _ := im.Lookup("MPI_Send")
	before, _ := m.RawRead(s.Addr, int(s.Size))
	r := rng.New(7)
	for i := 0; i < 300; i++ {
		ApplyStaticFault(m, d, RegionText, r)
	}
	after, _ := m.RawRead(s.Addr, int(s.Size))
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("an MPI stub byte was corrupted by a user-text fault")
		}
	}
}

func TestApplyHeapFaultTargetsUserChunks(t *testing.T) {
	im := faultTestImage(t)
	m := vm.New(im)
	mpiChunk := m.Heap.Alloc(256, abi.ChunkMPI)
	userChunk := m.Heap.Alloc(256, abi.ChunkUser)
	mpiBytes, _ := m.RawRead(mpiChunk, 256)
	r := rng.New(3)
	flips := 0
	for i := 0; i < 200; i++ {
		if desc, site := ApplyHeapFault(m, r); desc != "no target" {
			flips++
			if site.Kind != SiteMemory || site.At < userChunk || site.At >= userChunk+256 {
				t.Fatalf("%s at %+v", desc, site)
			}
		}
	}
	if flips != 200 {
		t.Fatalf("only %d/200 heap faults found a target", flips)
	}
	after, _ := m.RawRead(mpiChunk, 256)
	for i := range mpiBytes {
		if mpiBytes[i] != after[i] {
			t.Fatal("heap fault corrupted an MPI-tagged chunk")
		}
	}
	userAfter, _ := m.RawRead(userChunk, 256)
	changed := false
	var zero [256]byte
	for i := range userAfter {
		if userAfter[i] != zero[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("no user chunk byte was ever flipped")
	}
}

func TestApplyHeapFaultNoChunks(t *testing.T) {
	im := faultTestImage(t)
	m := vm.New(im)
	if desc, _ := ApplyHeapFault(m, rng.New(1)); desc != "no target" {
		t.Fatalf("empty heap produced %q", desc)
	}
}

func TestApplyStackFaultTargetsUserFrames(t *testing.T) {
	im := faultTestImage(t)
	m := vm.New(im)
	m.Handler = stubHandler{}
	// Step into main's body so a frame exists.
	for i := 0; i < 6; i++ {
		if tr := m.Step(); tr != nil {
			t.Fatalf("setup trap: %v", tr)
		}
	}
	desc, site := ApplyStackFault(m, rng.New(5))
	if desc == "no target" {
		t.Fatal("no user frame found; the walk is broken")
	}
	if !strings.HasPrefix(desc, fmt.Sprintf("stack 0x%08x", site.At)) || site.Kind != SiteMemory {
		t.Fatalf("desc = %q at %+v", desc, site)
	}
}

type stubHandler struct{}

func (stubHandler) Syscall(m *vm.Machine, num int32) *vm.Trap {
	return &vm.Trap{Kind: vm.TrapExit, PC: m.PC}
}

func TestRegionNames(t *testing.T) {
	// Table row labels must match the paper.
	want := []string{"Regular Reg.", "FP Reg.", "BSS", "Data", "Stack", "Text", "Heap", "Message"}
	for i, r := range Regions() {
		if r.String() != want[i] {
			t.Errorf("region %d = %q, want %q", i, r.String(), want[i])
		}
	}
	for _, s := range []string{"reg", "fp", "bss", "data", "stack", "text", "heap", "message"} {
		if _, err := ParseRegion(s); err != nil {
			t.Errorf("ParseRegion(%q): %v", s, err)
		}
	}
	if _, err := ParseRegion("bogus"); err == nil {
		t.Error("bogus region accepted")
	}
}
