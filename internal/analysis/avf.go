package analysis

import (
	"fmt"
	"io"
	"text/tabwriter"

	"mpifault/internal/image"
	"mpifault/internal/isa"
	"mpifault/internal/profile"
)

// AVFRow is one region's static fault-sensitivity prediction: the
// fraction of the region's bits whose corruption the analysis cannot
// prove harmless.  This is the paper's working-set explanation of
// manifestation rates (§6) turned into a forecast — an architectural
// vulnerability factor in the ACE-bit sense, computed before any
// injection runs.
type AVFRow struct {
	Region    string
	Sensitive uint64 // bits/bytes the analysis must assume matter
	Total     uint64
}

// Fraction returns Sensitive/Total, or 0 for an empty region.
func (r AVFRow) Fraction() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Sensitive) / float64(r.Total)
}

// AVFReport holds the per-region predictions for one image.
type AVFReport struct {
	App  string
	Rows []AVFRow
}

// EstimateAVF predicts per-region fault sensitivity from the CFG and
// liveness results.  prof, when non-nil, supplies measured section
// sizes (notably the observed deepest stack extent) as denominators;
// without it the estimator falls back to link-time sizes.
//
// The models, region by region — all deliberately simple overestimates:
//
//   - Regular registers: mean over reachable instructions of the live
//     register-context bits (32 per live GPR, 32 for the always-live
//     PC, 4 architecturally-readable flag bits when flags are live) out
//     of the 320-bit register target space the injector draws from.
//   - Text: bytes of user-owned functions actually reachable from the
//     entry point, out of all user text (dead code absorbs faults).
//   - Data/BSS: bytes of user symbols referenced by at least one
//     reachable instruction's address operand, out of the section size.
//   - Stack: live frame bytes (return address, saved fp, locals the
//     function actually reloads, transient pushes) out of full frame
//     bytes, summed over reachable user functions.
func EstimateAVF(prog *Program, live *Liveness, abiStats map[string]ABIStats, prof *profile.Profile) *AVFReport {
	rep := &AVFReport{}
	rep.Rows = append(rep.Rows,
		regRow(prog, live),
		textRow(prog),
	)
	dataRow, bssRow := staticDataRows(prog)
	stack := stackRow(prog, abiStats)
	if prof != nil && prof.StackBytes > 0 && stack.Total > 0 {
		// Rescale to the measured stack extent so absolute bytes match
		// what the stack-region injector actually targets.
		frac := stack.Fraction()
		stack.Total = uint64(prof.StackBytes)
		stack.Sensitive = uint64(frac * float64(stack.Total))
	}
	rep.Rows = append(rep.Rows, dataRow, bssRow, stack)
	return rep
}

// regRow: the register-context model mirrors core.ApplyRegisterFault's
// target space: 8 GPRs + PC + flags, 32 bits each.
func regRow(prog *Program, live *Liveness) AVFRow {
	const perInstr = 10 * 32
	var instrs, liveBits uint64
	for _, f := range prog.Funcs {
		if !f.Reachable {
			continue
		}
		for i := range f.Instrs {
			mask, ok := live.LiveAt(f.Addr(i))
			if !ok {
				continue
			}
			m := RegMask(mask)
			bits := uint64(32) // PC is always consequential
			for r := 0; r < isa.NumGPR; r++ {
				if m.Has(r) {
					bits += 32
				}
			}
			if m.HasFlags() {
				bits += 4 // only Z/LT/UL/UN are ever read
			}
			instrs++
			liveBits += bits
		}
	}
	return AVFRow{Region: "Regular Reg.", Sensitive: liveBits, Total: instrs * perInstr}
}

func textRow(prog *Program) AVFRow {
	var reachable, total uint64
	for _, f := range prog.Funcs {
		if f.Sym.Owner != image.OwnerUser {
			continue
		}
		total += uint64(f.Sym.Size)
		if f.Reachable {
			reachable += uint64(f.Sym.Size)
		}
	}
	return AVFRow{Region: "Text", Sensitive: reachable, Total: total}
}

// staticDataRows marks a user data/BSS symbol sensitive when any
// reachable instruction carries its address in an immediate — movi of a
// symbol address or an absolute/displacement memory operand.  The whole
// symbol counts: field-level tracking is beyond a static pass over raw
// immediates.
func staticDataRows(prog *Program) (data, bss AVFRow) {
	referenced := referencedDataSyms(prog)
	for _, sym := range prog.Image.Symbols {
		if sym.Owner != image.OwnerUser {
			continue
		}
		var row *AVFRow
		switch sym.Kind {
		case image.SymData:
			row = &data
		case image.SymBSS:
			row = &bss
		default:
			continue
		}
		row.Total += uint64(sym.Size)
		if referenced[sym.Name] {
			row.Sensitive += uint64(sym.Size)
		}
	}
	data.Region, bss.Region = "Data", "BSS"
	return data, bss
}

// referencedDataSyms returns the user data/BSS symbols whose address
// appears in a reachable instruction's immediate.  Both the AVF
// estimator and the equivalence pass key their data-region claims on
// this one set, so the forecast and the benign summary cannot drift
// apart.
func referencedDataSyms(prog *Program) map[string]bool {
	referenced := make(map[string]bool)
	touch := func(addr uint32) {
		if sym, ok := prog.Image.FindSymbol(addr); ok && sym.Owner == image.OwnerUser &&
			(sym.Kind == image.SymData || sym.Kind == image.SymBSS) {
			referenced[sym.Name] = true
		}
	}
	for _, f := range prog.Funcs {
		if !f.Reachable {
			continue
		}
		for i, in := range f.Instrs {
			if !f.reach[i] {
				continue
			}
			if in.Op == isa.OpMovi || in.Op.IsMemForm() {
				touch(uint32(in.Imm))
			}
		}
	}
	return referenced
}

// stackRow models each reachable user function's frame: 4 bytes of
// return address and everything below it (saved fp, locals, transient
// pushes) as the full frame; the live part keeps the return address,
// saved fp, transient pushes, and only the local words the function
// reloads through fp-relative loads.
func stackRow(prog *Program, abiStats map[string]ABIStats) AVFRow {
	var liveBytes, totalBytes uint64
	for _, f := range prog.Funcs {
		if !f.Reachable || f.Sym.Owner != image.OwnerUser {
			continue
		}
		// Without ABI stats there is no link-time frame size; skipping
		// the function (rather than fabricating an extent from the zero
		// value) leaves Total=0 when nothing is known, which WriteAVF
		// reports by omitting the row instead of printing a fake 0%.
		st, ok := abiStats[f.Sym.Name]
		if !ok {
			continue
		}
		full := 4 + 4*st.MaxDepthWords
		readLocals := make(map[int32]int)
		for i, in := range f.Instrs {
			if !f.reach[i] {
				continue
			}
			if in.Ra != isa.FP || in.Imm >= 0 || !in.Op.IsMemForm() || !in.Op.IsLoad() && in.Op != isa.OpFld {
				continue
			}
			size := 4
			if in.Op == isa.OpFld {
				size = 8
			}
			readLocals[in.Imm] = size
		}
		readBytes := 0
		for _, s := range readLocals {
			readBytes += s
		}
		if readBytes > 4*st.LocalWords {
			readBytes = 4 * st.LocalWords
		}
		liveWords := st.MaxDepthWords - st.LocalWords
		if liveWords < 0 {
			liveWords = st.MaxDepthWords
		}
		live := 4 + 4*liveWords + readBytes
		if live > full {
			live = full
		}
		liveBytes += uint64(live)
		totalBytes += uint64(full)
	}
	return AVFRow{Region: "Stack", Sensitive: liveBytes, Total: totalBytes}
}

// Priors returns the per-region sensitivity fractions keyed by table
// row label ("Regular Reg.", "Text", ...) — the pilot priors the
// adaptive campaign planner seeds its first round with.  Rows with an
// empty denominator are omitted; the planner falls back to the paper's
// worst case 0.5 for regions it has no estimate for.  Values of exactly
// 0 or 1 are likewise omitted (the planner treats them as unknown), so
// the map round-trips through the journal header unchanged.
func (rep *AVFReport) Priors() map[string]float64 {
	out := make(map[string]float64, len(rep.Rows))
	for _, r := range rep.Rows {
		f := r.Fraction()
		if r.Total == 0 || !(f > 0 && f < 1) {
			continue
		}
		out[r.Region] = f
	}
	return out
}

// StaticAVF runs the static pipeline (CFG, liveness, ABI audit, AVF
// estimation) over an image.  Analysis findings are not fatal here: the
// estimate only forecasts rates and steers pilot sizing, so a program
// the lint pass complains about still gets the fractions the estimator
// can compute.
func StaticAVF(im *image.Image) (*AVFReport, error) {
	prog, err := Analyze(im)
	if err != nil {
		return nil, err
	}
	live := ComputeLiveness(prog)
	_, abiStats := ABICheck(prog)
	return EstimateAVF(prog, live, abiStats, nil), nil
}

// AVFPriors returns StaticAVF's per-region pilot priors.  Both the
// single-process campaign runner and the coordinator call this one
// function, so an adaptive campaign's priors — and hence its round
// schedule — are identical however it is executed.
func AVFPriors(im *image.Image) (map[string]float64, error) {
	rep, err := StaticAVF(im)
	if err != nil {
		return nil, err
	}
	return rep.Priors(), nil
}

// WriteAVF prints the prediction table.  measured, when non-empty, maps
// region names to measured manifestation fractions for side-by-side
// comparison (see cmd/faultcampaign -predict).
func (rep *AVFReport) WriteAVF(w io.Writer, measured map[string]float64) {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', tabwriter.AlignRight)
	if len(measured) > 0 {
		fmt.Fprintln(tw, "region\tsensitive\ttotal\tpredicted\tmeasured\t")
	} else {
		fmt.Fprintln(tw, "region\tsensitive\ttotal\tpredicted\t")
	}
	for _, r := range rep.Rows {
		if r.Total == 0 {
			// Nothing is known about the region (e.g. the stack row with
			// no profile and no link-time frame sizes); a "0/0 = 0%" row
			// would read as a prediction, so skip it.
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f%%\t", r.Region, r.Sensitive, r.Total, 100*r.Fraction())
		if len(measured) > 0 {
			if m, ok := measured[r.Region]; ok {
				fmt.Fprintf(tw, "%.1f%%\t", 100*m)
			} else {
				fmt.Fprintf(tw, "-\t")
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}
