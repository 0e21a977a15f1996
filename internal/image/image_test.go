package image

import (
	"testing"
	"testing/quick"
)

func testImage() *Image {
	im := &Image{
		Text:      make([]byte, 0x200),
		Data:      make([]byte, 0x80),
		BSSSize:   0x100,
		DataBase:  TextBase + 0x1000,
		BSSBase:   TextBase + 0x2000,
		HeapBase:  TextBase + 0x3000,
		HeapLimit: TextBase + 0x13000,
		StackSize: 0x10000,
		Entry:     TextBase,
		Symbols: []Symbol{
			{Name: "main", Kind: SymFunc, Owner: OwnerUser, Addr: TextBase, Size: 0x100},
			{Name: "MPI_Send", Kind: SymFunc, Owner: OwnerMPI, Addr: TextBase + 0x100, Size: 0x100},
			{Name: "gdata", Kind: SymData, Owner: OwnerUser, Addr: TextBase + 0x1000, Size: 0x40},
			{Name: "mdata", Kind: SymData, Owner: OwnerMPI, Addr: TextBase + 0x1040, Size: 0x40},
			{Name: "gbss", Kind: SymBSS, Owner: OwnerUser, Addr: TextBase + 0x2000, Size: 0x100},
		},
	}
	im.SortSymbols()
	return im
}

func TestFindSymbol(t *testing.T) {
	im := testImage()
	s, ok := im.FindSymbol(TextBase + 0x50)
	if !ok || s.Name != "main" {
		t.Fatalf("lookup mid-main: %+v ok=%v", s, ok)
	}
	s, ok = im.FindSymbol(TextBase + 0x1FF)
	if !ok || s.Name != "MPI_Send" {
		t.Fatalf("lookup last byte of MPI_Send: %+v ok=%v", s, ok)
	}
	if _, ok := im.FindSymbol(TextBase + 0x900); ok {
		t.Fatal("gap lookup should fail")
	}
	if _, ok := im.FindSymbol(0); ok {
		t.Fatal("below-text lookup should fail")
	}
}

func TestInUserText(t *testing.T) {
	im := testImage()
	if !im.InUserText(TextBase + 4) {
		t.Fatal("main must be user text")
	}
	if im.InUserText(TextBase + 0x104) {
		t.Fatal("MPI_Send must not be user text")
	}
	if im.InUserText(TextBase + 0x1000) {
		t.Fatal("data addresses are not text")
	}
}

func TestSectionSizes(t *testing.T) {
	im := testImage()
	sizes := im.SectionSizes()
	if sizes[OwnerUser][SymFunc] != 0x100 || sizes[OwnerMPI][SymFunc] != 0x100 {
		t.Fatalf("text sizes: %+v", sizes)
	}
	if sizes[OwnerUser][SymBSS] != 0x100 {
		t.Fatalf("bss sizes: %+v", sizes)
	}
}

func TestValidateCatchesOverlaps(t *testing.T) {
	good := testImage()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid image rejected: %v", err)
	}
	cases := []struct {
		name  string
		mutat func(*Image)
	}{
		{"entry outside text", func(im *Image) { im.Entry = 0 }},
		{"data overlaps text", func(im *Image) { im.DataBase = TextBase }},
		{"bss overlaps data", func(im *Image) { im.BSSBase = im.DataBase }},
		{"heap overlaps bss", func(im *Image) { im.HeapBase = im.BSSBase }},
		{"empty heap", func(im *Image) { im.HeapLimit = im.HeapBase }},
		{"heap into stack", func(im *Image) { im.HeapLimit = StackTop }},
		{"zero stack", func(im *Image) { im.StackSize = 0 }},
	}
	for _, c := range cases {
		im := testImage()
		c.mutat(im)
		if err := im.Validate(); err == nil {
			t.Errorf("%s: not caught", c.name)
		}
	}
}

func TestSegmentEnds(t *testing.T) {
	im := testImage()
	if im.TextEnd() != TextBase+0x200 {
		t.Fatal("TextEnd")
	}
	if im.DataEnd() != im.DataBase+0x80 {
		t.Fatal("DataEnd")
	}
	if im.BSSEnd() != im.BSSBase+0x100 {
		t.Fatal("BSSEnd")
	}
	if im.StackBase() != StackTop-0x10000 {
		t.Fatal("StackBase")
	}
}

func TestFindSymbolConsistentWithLinearScan(t *testing.T) {
	im := testImage()
	f := func(off uint32) bool {
		addr := TextBase + off%0x4000
		got, ok := im.FindSymbol(addr)
		// Linear reference scan.
		var want Symbol
		found := false
		for _, s := range im.Symbols {
			if addr >= s.Addr && addr < s.Addr+s.Size {
				want, found = s, true
			}
		}
		if ok != found {
			return false
		}
		return !ok || got.Name == want.Name
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
