package core

import (
	"fmt"
	"math"

	"mpifault/internal/abi"
	"mpifault/internal/isa"
	"mpifault/internal/mpi"
	"mpifault/internal/rng"
	"mpifault/internal/vm"
)

// Region enumerates the paper's eight injection targets, in the row order
// of Tables 2-4.
type Region int

const (
	RegionRegularReg Region = iota
	RegionFPReg
	RegionBSS
	RegionData
	RegionStack
	RegionText
	RegionHeap
	RegionMessage
	NumRegions
)

// String returns the table row label used in the paper.
func (r Region) String() string {
	switch r {
	case RegionRegularReg:
		return "Regular Reg."
	case RegionFPReg:
		return "FP Reg."
	case RegionBSS:
		return "BSS"
	case RegionData:
		return "Data"
	case RegionStack:
		return "Stack"
	case RegionText:
		return "Text"
	case RegionHeap:
		return "Heap"
	case RegionMessage:
		return "Message"
	default:
		return "Region?"
	}
}

// Short returns the region's canonical short name, the form used in
// experiment IDs and journal headers.  ParseRegion inverts it.
func (r Region) Short() string {
	switch r {
	case RegionRegularReg:
		return "reg"
	case RegionFPReg:
		return "fp"
	case RegionBSS:
		return "bss"
	case RegionData:
		return "data"
	case RegionStack:
		return "stack"
	case RegionText:
		return "text"
	case RegionHeap:
		return "heap"
	case RegionMessage:
		return "message"
	default:
		return "region?"
	}
}

// ParseRegion resolves a table row label or short name.
func ParseRegion(s string) (Region, error) {
	switch s {
	case "reg", "regular", "Regular Reg.":
		return RegionRegularReg, nil
	case "fpreg", "fp", "FP Reg.":
		return RegionFPReg, nil
	case "bss", "BSS":
		return RegionBSS, nil
	case "data", "Data":
		return RegionData, nil
	case "stack", "Stack":
		return RegionStack, nil
	case "text", "Text":
		return RegionText, nil
	case "heap", "Heap":
		return RegionHeap, nil
	case "message", "msg", "Message":
		return RegionMessage, nil
	}
	return 0, fmt.Errorf("core: unknown region %q", s)
}

// Regions returns all regions in table order.
func Regions() []Region {
	out := make([]Region, NumRegions)
	for i := range out {
		out[i] = Region(i)
	}
	return out
}

// RegisterSpaceBits is ApplyRegisterFault's sampling space: 8 GPRs +
// PC + FLAGS, 32 bits each.
const RegisterSpaceBits = (isa.NumGPR + 2) * 32

// Site is what a fault flipped, in the terms of the dead-at-injection
// rules (dead.go).
type Site struct {
	Kind SiteKind
	// At is the flipped byte's address (SiteMemory) or the physical
	// register (SiteFPData).
	At uint32
}

// SiteKind sorts flips by the rule that can prove them unread.
type SiteKind uint8

const (
	// SiteOther is a flip no rule reasons about — a GPR, the PC, a readable
	// flags or TWD bit — or no flip at all.
	SiteOther SiteKind = iota
	// SiteMemory is a bit of one byte of guest memory, text included.
	SiteMemory
	// SiteFPData is a bit of an FP data register.
	SiteFPData
	// SiteWriteOnly is a bit no instruction reads (isa.FlagsReadableBits,
	// isa.SWDTopMask).
	SiteWriteOnly
)

// ApplyRegisterFault flips one uniformly chosen bit across the "regular"
// register set: the eight GPRs, the program counter and the flags — the
// x86's general-purpose context.  It returns a description of the flip and
// its site.
func ApplyRegisterFault(m *vm.Machine, r *rng.Rand) (string, Site) {
	// 8 GPRs + PC + FLAGS, 32 bits each.
	target := r.Intn(10)
	bit := uint(r.Intn(32))
	return flipRegisterBit(m, target, bit)
}

// flipRegisterBit flips one bit of one register-context target (0..7 the
// GPRs, 8 the PC, 9 the flags word) and returns the flip's description and
// site.  Every register-region injection path — uniform, liveness-directed,
// and equivalence-driven — funnels through here so descriptions stay
// identical across policies.
func flipRegisterBit(m *vm.Machine, target int, bit uint) (string, Site) {
	switch {
	case target < isa.NumGPR:
		m.Regs[target] ^= 1 << bit
		return fmt.Sprintf("%s bit %d", isa.GPRName(target), bit), Site{}
	case target == isa.NumGPR:
		m.PC ^= 1 << bit
		return fmt.Sprintf("pc bit %d", bit), Site{}
	default:
		m.Flags ^= 1 << bit
		var s Site
		if bit >= isa.FlagsReadableBits {
			s.Kind = SiteWriteOnly
		}
		return fmt.Sprintf("flags bit %d", bit), s
	}
}

// ApplyFPRegisterFault flips one uniformly chosen bit across the
// floating-point environment: the eight 64-bit data registers and the
// seven special registers (CWD, SWD, TWD, FIP, FCS, FOO, FOS), matching
// the paper's x87 target set (§3.2, §6.1.1).
func ApplyFPRegisterFault(m *vm.Machine, r *rng.Rand) (string, Site) {
	const (
		dataBits = isa.NumFPReg * 64 // 512
		wordBits = 16                // CWD, SWD, TWD
	)
	// Total: 512 data + 3*16 + 4*32 = 688 bits.
	n := r.Intn(dataBits + 3*wordBits + 4*32)
	e := &m.FP
	writeOnly := Site{Kind: SiteWriteOnly}
	switch {
	case n < dataBits:
		reg := n / 64
		bit := uint(n % 64)
		bits := math.Float64bits(e.Regs[reg]) ^ (1 << bit)
		e.Regs[reg] = math.Float64frombits(bits)
		return fmt.Sprintf("st-phys%d bit %d", reg, bit), Site{Kind: SiteFPData, At: uint32(reg)}
	case n < dataBits+wordBits:
		bit := uint(n - dataBits)
		e.CWD ^= 1 << bit
		return fmt.Sprintf("CWD bit %d", bit), writeOnly
	case n < dataBits+2*wordBits:
		bit := uint(n - dataBits - wordBits)
		e.SWD ^= 1 << bit
		var s Site
		if isa.SWDTopMask&(1<<bit) == 0 {
			s = writeOnly
		}
		return fmt.Sprintf("SWD bit %d", bit), s
	case n < dataBits+3*wordBits:
		bit := uint(n - dataBits - 2*wordBits)
		e.TWD ^= 1 << bit
		return fmt.Sprintf("TWD bit %d", bit), Site{}
	default:
		k := n - dataBits - 3*wordBits
		reg := k / 32
		bit := uint(k % 32)
		switch reg {
		case 0:
			e.FIP ^= 1 << bit
			return fmt.Sprintf("FIP bit %d", bit), writeOnly
		case 1:
			e.FCS ^= 1 << bit
			return fmt.Sprintf("FCS bit %d", bit), writeOnly
		case 2:
			e.FOO ^= 1 << bit
			return fmt.Sprintf("FOO bit %d", bit), writeOnly
		default:
			e.FOS ^= 1 << bit
			return fmt.Sprintf("FOS bit %d", bit), writeOnly
		}
	}
}

// flipByte flips one bit of the byte at addr through the injector's raw
// (permission-ignoring) memory view, as ptrace POKEDATA would.
func flipByte(m *vm.Machine, addr uint32, bit uint) bool {
	b, ok := m.RawRead(addr, 1)
	if !ok {
		return false
	}
	return m.RawWrite(addr, []byte{b[0] ^ (1 << bit)})
}

// ApplyStaticFault flips a bit at a dictionary-chosen address of the
// text, data or BSS section.
func ApplyStaticFault(m *vm.Machine, d *Dictionary, region Region, r *rng.Rand) (string, Site) {
	var addr uint32
	var ok bool
	switch region {
	case RegionText:
		addr, ok = d.RandText(r)
	case RegionData:
		addr, ok = d.RandData(r)
	case RegionBSS:
		addr, ok = d.RandBSS(r)
	}
	if !ok {
		return "no target", Site{}
	}
	bit := uint(r.Intn(8))
	if !flipByte(m, addr, bit) {
		return "no target", Site{}
	}
	return fmt.Sprintf("%s 0x%08x bit %d", region, addr, bit), Site{Kind: SiteMemory, At: addr}
}

// ApplyHeapFault scans the guest-resident chunk headers for user-tagged
// chunks (the paper's malloc-wrapper identifiers) and flips one bit in a
// uniformly chosen payload byte.
func ApplyHeapFault(m *vm.Machine, r *rng.Rand) (string, Site) {
	chunks := m.Heap.Chunks()
	var total uint64
	for _, c := range chunks {
		if c.Valid && c.Tag == abi.ChunkUser {
			total += uint64(c.Size)
		}
	}
	if total == 0 {
		return "no target", Site{}
	}
	off := r.Uint64n(total)
	for _, c := range chunks {
		if !c.Valid || c.Tag != abi.ChunkUser {
			continue
		}
		if off < uint64(c.Size) {
			bit := uint(r.Intn(8))
			// Include the chunk header region occasionally?  The paper
			// flips bits in the located chunk's payload; stay faithful.
			addr := c.Payload + uint32(off)
			if !flipByte(m, addr, bit) {
				return "no target", Site{}
			}
			return fmt.Sprintf("heap 0x%08x bit %d", addr, bit), Site{Kind: SiteMemory, At: addr}
		}
		off -= uint64(c.Size)
	}
	return "no target", Site{}
}

// ApplyStackFault walks the frame-pointer chain and flips a bit inside a
// frame that is in user-application context — §3.2's criterion that the
// frame's return address lie within user text.
func ApplyStackFault(m *vm.Machine, r *rng.Rand) (string, Site) {
	frames := m.WalkFrames()
	type span struct{ lo, hi uint32 }
	var spans []span
	var total uint64
	lo := m.Regs[isa.SP]
	for _, fr := range frames {
		hi := fr.FP + 8 // include the saved FP and return address
		if hi <= lo {
			lo = hi
			continue
		}
		if fr.UserContext {
			spans = append(spans, span{lo, hi})
			total += uint64(hi - lo)
		}
		lo = hi
	}
	if total == 0 {
		return "no target", Site{}
	}
	off := r.Uint64n(total)
	for _, s := range spans {
		n := uint64(s.hi - s.lo)
		if off < n {
			addr := s.lo + uint32(off)
			bit := uint(r.Intn(8))
			if !flipByte(m, addr, bit) {
				return "no target", Site{}
			}
			return fmt.Sprintf("stack 0x%08x bit %d", addr, bit), Site{Kind: SiteMemory, At: addr}
		}
		off -= n
	}
	return "no target", Site{}
}

// MessageInjector corrupts one bit of one byte of the Channel stream a
// rank receives (§3.3), named by where it sits in the job rather than by
// when it arrived: byte Offset of everything rank Sender sends the rank
// (campaignCtx.messageTarget).  Install its Hook as the rank's RecvHook.
// Read the Report once the run has returned.
type MessageInjector struct {
	Sender int    // the rank whose packets are counted
	Offset uint64 // byte to corrupt, counted over Sender's packets only
	Bit    uint   // bit to flip within it

	seen     uint64 // Sender's bytes already pulled
	at       uint64 // the rank's clock when it pulls the packet holding the byte
	injected bool
	desc     string
}

// Hook implements the Channel-layer injection point: it runs on the raw
// bytes of each received packet, immediately after the recv and before
// parsing.
func (mi *MessageInjector) Hook(pkt []byte) {
	if mi.injected || mpi.RawSource(pkt) != mi.Sender {
		return
	}
	if idx := mi.Offset - mi.seen; idx < uint64(len(pkt)) {
		pkt[idx] ^= 1 << mi.Bit
		mi.injected = true
		where := "payload"
		if idx < mpi.HeaderBytes {
			where = "header"
		}
		mi.desc = fmt.Sprintf("message byte %d (%s) bit %d", idx, where, mi.Bit)
	}
	mi.seen += uint64(len(pkt))
}

// Report returns whether the bit flip has been applied yet and its
// description.
func (mi *MessageInjector) Report() (injected bool, desc string) {
	return mi.injected, mi.desc
}
