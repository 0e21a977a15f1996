// Package image defines the binary program image produced by the assembler
// and consumed by the virtual machine and the fault injector.
//
// The address-space layout mirrors the Linux/x86-32 process model shown in
// Figure 1 of the paper: text at 0x08048000, then data, then BSS, then a
// heap growing upward, and a stack growing down from 0xC0000000.  The image
// also carries a full symbol table, with every symbol attributed to either
// the user application or the MPI library — the distinction the paper's
// fault dictionary relies on to avoid injecting into MPI-owned memory.
package image

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Address-space layout constants (see Figure 1 of the paper).
const (
	TextBase  uint32 = 0x08048000
	StackTop  uint32 = 0xC0000000
	PageAlign uint32 = 0x1000
)

// Owner attributes a symbol to the user application or the MPI library.
type Owner uint8

const (
	OwnerUser Owner = iota // user application (including its runtime library)
	OwnerMPI               // MPI library
)

func (o Owner) String() string {
	if o == OwnerMPI {
		return "mpi"
	}
	return "user"
}

// SymKind classifies a symbol by the segment it lives in.
type SymKind uint8

const (
	SymFunc SymKind = iota // text segment
	SymData                // initialized data
	SymBSS                 // zero-initialized data
)

func (k SymKind) String() string {
	switch k {
	case SymFunc:
		return "func"
	case SymData:
		return "data"
	case SymBSS:
		return "bss"
	default:
		return "sym?"
	}
}

// Symbol is one entry of the image's symbol table.
type Symbol struct {
	Name   string
	Module string // source module name
	Kind   SymKind
	Owner  Owner
	Addr   uint32
	Size   uint32
}

// Image is a fully linked guest program.
//
// Text and Data are immutable once the first machine has been loaded from
// the image: the VM maps them copy-on-write into every rank of every
// experiment, so an in-place mutation would leak into concurrently running
// machines.  Producers (the assembler's Link) hand over fresh slices;
// consumers that need to corrupt bytes do so through vm.Machine.RawWrite,
// which unshares the affected segment first.
type Image struct {
	// Text is the executable segment, loaded at TextBase.
	Text []byte
	// Data is the initialized data segment, loaded at DataBase.
	Data []byte
	// BSSSize is the size of the zero-initialized segment at BSSBase.
	BSSSize uint32

	DataBase uint32
	BSSBase  uint32
	// HeapBase is where the heap begins; HeapLimit bounds its growth.
	HeapBase  uint32
	HeapLimit uint32
	// StackSize is the size of the stack segment ending at StackTop.
	StackSize uint32

	// Entry is the address of the startup shim (_start).
	Entry uint32

	// Symbols is sorted by address.
	Symbols []Symbol

	// predecoded caches the VM's decoded-text table (see Predecoded).
	predecoded atomic.Value
}

// Predecoded returns the image-wide cache slot for a derived, immutable
// view of the text segment, building it on first use.  The VM stores its
// predecoded instruction table here so that one decode pass is shared by
// all machines, ranks and experiments of a campaign.  Concurrent first
// uses may invoke build more than once; every returned value must
// therefore be equivalent (and of the same concrete type).  build must
// not return nil.
func (im *Image) Predecoded(build func() any) any {
	if v := im.predecoded.Load(); v != nil {
		return v
	}
	v := build()
	im.predecoded.Store(v)
	return v
}

// TextEnd returns the first address past the text segment.
func (im *Image) TextEnd() uint32 { return TextBase + uint32(len(im.Text)) }

// DataEnd returns the first address past the data segment.
func (im *Image) DataEnd() uint32 { return im.DataBase + uint32(len(im.Data)) }

// BSSEnd returns the first address past the BSS segment.
func (im *Image) BSSEnd() uint32 { return im.BSSBase + im.BSSSize }

// StackBase returns the lowest address of the stack segment.
func (im *Image) StackBase() uint32 { return StackTop - im.StackSize }

// SortSymbols sorts the symbol table by address; it must be called once
// after construction before FindSymbol is used.
func (im *Image) SortSymbols() {
	sort.Slice(im.Symbols, func(i, j int) bool {
		return im.Symbols[i].Addr < im.Symbols[j].Addr
	})
}

// FindSymbol returns the symbol covering addr, if any.
func (im *Image) FindSymbol(addr uint32) (Symbol, bool) {
	i := sort.Search(len(im.Symbols), func(i int) bool {
		return im.Symbols[i].Addr > addr
	})
	if i == 0 {
		return Symbol{}, false
	}
	s := im.Symbols[i-1]
	if addr >= s.Addr && addr < s.Addr+s.Size {
		return s, true
	}
	return Symbol{}, false
}

// Lookup returns the symbol with the given name.
func (im *Image) Lookup(name string) (Symbol, bool) {
	for _, s := range im.Symbols {
		if s.Name == name {
			return s, true
		}
	}
	return Symbol{}, false
}

// InUserText reports whether addr lies inside a user-owned function —
// the test the stack walker applies to return addresses (§3.2).
func (im *Image) InUserText(addr uint32) bool {
	s, ok := im.FindSymbol(addr)
	return ok && s.Kind == SymFunc && s.Owner == OwnerUser
}

// SectionSizes returns the text/data/BSS sizes attributed to each owner,
// mirroring the objdump/nm measurement the paper uses for Table 1.
func (im *Image) SectionSizes() map[Owner]map[SymKind]uint32 {
	out := map[Owner]map[SymKind]uint32{
		OwnerUser: {},
		OwnerMPI:  {},
	}
	for _, s := range im.Symbols {
		out[s.Owner][s.Kind] += s.Size
	}
	return out
}

// Validate performs basic structural checks on the image layout.
func (im *Image) Validate() error {
	if im.Entry < TextBase || im.Entry >= im.TextEnd() {
		return fmt.Errorf("image: entry 0x%08x outside text [0x%08x,0x%08x)", im.Entry, TextBase, im.TextEnd())
	}
	if im.DataBase < im.TextEnd() {
		return fmt.Errorf("image: data base 0x%08x overlaps text", im.DataBase)
	}
	if im.BSSBase < im.DataEnd() {
		return fmt.Errorf("image: bss base 0x%08x overlaps data", im.BSSBase)
	}
	if im.HeapBase < im.BSSEnd() {
		return fmt.Errorf("image: heap base 0x%08x overlaps bss", im.HeapBase)
	}
	if im.HeapLimit <= im.HeapBase {
		return fmt.Errorf("image: empty heap")
	}
	if im.HeapLimit > im.StackBase() {
		return fmt.Errorf("image: heap limit 0x%08x overlaps stack", im.HeapLimit)
	}
	if im.StackSize == 0 {
		return fmt.Errorf("image: zero stack size")
	}
	return nil
}
