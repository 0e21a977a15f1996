package vm

import (
	"mpifault/internal/image"
	"mpifault/internal/isa"
)

// Predecode cache.
//
// A campaign executes the same image thousands of times (hundreds of
// injections x several ranks x eight regions), and the interpreter used to
// re-decode the instruction bytes on every retired instruction.  Instead,
// the text segment is decoded exactly once per image into an immutable
// []isa.Instr table shared by every machine, and Step fetches decoded
// instructions by slot index.
//
// The table is only a cache of the text bytes, never the truth: a machine
// whose text has been written (the injector's RawWrite — there is no other
// way to write text) records the affected slots in a per-machine dirty
// bitmap, and dirty slots take the byte-decode path again so that corrupted
// encodings keep raising SIGILL exactly as they did before predecoding.
// Likewise a PC that is not slot-aligned (possible after a PC bit flip)
// falls back to byte decoding.

// predecoded is everything derived from an image's bytes: the decoded
// instruction table Step fetches from, the superblock tier compiled over
// it (see superblock.go) and the page tables machines map.  One instance
// is built per image and shared immutably by every machine; per-machine
// deviations (text corruption) live in the dirty bitmap and the
// machine-local run-end clone, never here.
type predecoded struct {
	instrs []isa.Instr
	prog   []uop
	end    []uint32
	// text and data are the image's segments cut into pages, which every
	// machine of the image maps copy-on-write.
	text, data []*page
}

// predecodeFor returns the image's shared predecode + superblock tables.
func predecodeFor(im *image.Image) *predecoded {
	return im.Predecoded(func() any {
		instrs := isa.DecodeAll(im.Text)
		prog, end := compileSuperblocks(instrs)
		return &predecoded{instrs: instrs, prog: prog, end: end,
			text: pagesOf(im.Text), data: pagesOf(im.Data)}
	}).(*predecoded)
}

// markTextDirty records that text bytes [off, off+n) were overwritten, so
// the predecode slots covering them must be byte-decoded from now on.
func (m *Machine) markTextDirty(off uint32, n int) {
	if n <= 0 {
		return
	}
	if m.textDirty == nil {
		slots := (m.text.length + isa.InstrBytes - 1) / isa.InstrBytes
		m.textDirty = make([]uint64, (slots+63)/64)
	}
	last := (off + uint32(n) - 1) / isa.InstrBytes
	for s := off / isa.InstrBytes; s <= last; s++ {
		m.textDirty[s/64] |= 1 << (s % 64)
		m.sbInvalidate(s) // no compiled run may execute into this slot
	}
}

// textSlotDirty reports whether predecode slot s has been overwritten on
// this machine.
func (m *Machine) textSlotDirty(s uint32) bool {
	d := m.textDirty
	return d != nil && d[s/64]&(1<<(s%64)) != 0
}
