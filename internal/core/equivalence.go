package core

import (
	"fmt"
	"sort"
	"strings"

	"mpifault/internal/classify"
	"mpifault/internal/isa"
	"mpifault/internal/rng"
	"mpifault/internal/vm"
)

// This file wires the dataflow equivalence partition (see
// internal/analysis/equivalence.go) into the campaign: pilot sampling
// over the non-benign bits, Horvitz–Thompson reweighting of the tallies
// back to unbiased full-space rates, and the validator that checks every
// static claim against campaign ground truth.  The EquivalenceMap
// interface uses only primitive types so that core never imports the
// analysis package.

// EquivalenceMap supplies the per-PC partition of the 320-bit register
// target space from a static analysis.  benignMask marks fully-benign
// targets (bits 0..NumGPR-1 the GPRs, bit NumGPR the flags word; a
// non-benign flags word still has only its isa.FlagsReadableBits low bits
// consequential).  classIDs gives each target's equivalence-class
// identity (0..7 the GPRs, 8 the PC, 9 the flags word) — nonzero for
// every non-benign target, equal across sites whose corruption provably
// flows into the same first use.  StaticBenignAt reports whether a
// data/BSS address lies in a symbol the analysis claims unreferenced.
type EquivalenceMap interface {
	PartitionAt(pc uint32) (benignMask uint16, classIDs [10]uint64, ok bool)
	StaticBenignAt(addr uint32) bool
}

// EquivalencePolicy selects how a register-fault campaign uses an
// EquivalenceMap.
type EquivalencePolicy int

const (
	// EquivOff ignores the map.
	EquivOff EquivalencePolicy = iota
	// EquivAnnotate samples the full space exactly like the undirected
	// baseline — same random draws, same flips, byte-identical outcomes —
	// but stamps each experiment with its class ID and the benign-bit count,
	// turning a full campaign into ground truth the validator can hold
	// against the static claims.
	EquivAnnotate
	// EquivPrune samples only non-benign bits; ReweightTallies restores
	// unbiased full-space rates by crediting the skipped benign mass to
	// Correct.  This is the campaign accelerator.
	EquivPrune
	// EquivAudit samples only provably-benign bits; every outcome must
	// classify Correct, making it the soundness gate for the partition.
	EquivAudit
)

func (p EquivalencePolicy) String() string {
	switch p {
	case EquivAnnotate:
		return "annotate"
	case EquivPrune:
		return "prune"
	case EquivAudit:
		return "audit"
	default:
		return "off"
	}
}

// ParseEquivalencePolicy resolves the CLI spelling of a policy.
func ParseEquivalencePolicy(s string) (EquivalencePolicy, error) {
	switch s {
	case "", "off":
		return EquivOff, nil
	case "annotate":
		return EquivAnnotate, nil
	case "prune":
		return EquivPrune, nil
	case "audit":
		return EquivAudit, nil
	}
	return 0, fmt.Errorf("core: unknown equivalence policy %q (want annotate, prune or audit)", s)
}

// benignBitsOf counts the provably-benign bits a partition mask claims
// out of the RegisterSpaceBits space: 32 per benign GPR, and either the
// whole flags word or its 28 never-read high bits.
func benignBitsOf(mask uint16) int {
	n := 0
	for g := 0; g < isa.NumGPR; g++ {
		if mask&(1<<g) != 0 {
			n += 32
		}
	}
	if mask&(1<<isa.NumGPR) != 0 {
		n += 32
	} else {
		n += 32 - isa.FlagsReadableBits
	}
	return n
}

// bitIsBenign reports whether one (target, bit) point of the register
// space is benign under the mask.
func bitIsBenign(mask uint16, target int, bit uint) bool {
	switch {
	case target < isa.NumGPR:
		return mask&(1<<target) != 0
	case target == isa.NumGPR: // PC is never benign
		return false
	default:
		if mask&(1<<isa.NumGPR) != 0 {
			return true
		}
		return bit >= isa.FlagsReadableBits
	}
}

// ApplyRegisterFaultEquiv flips one register-context bit according to
// the equivalence policy at the machine's current PC.  It returns the
// flip description and site, the flipped bit's class ID (0 when the bit is
// benign or the site unpartitioned), the partition's benign-bit count at
// the site, and the candidate-set size sampled from.  When the map has
// no answer for the PC it falls back to the undirected baseline with
// (classID, benignBits) = (0, 0) — "unannotated".
func ApplyRegisterFaultEquiv(m *vm.Machine, r *rng.Rand, em EquivalenceMap, policy EquivalencePolicy) (desc string, site Site, classID uint64, benignBits, candidates int) {
	mask, ids, ok := em.PartitionAt(m.PC)
	switch policy {
	case EquivAnnotate:
		// Exactly the baseline's draws, so a fixed seed yields
		// byte-identical flips and outcomes; only the annotation differs.
		target := r.Intn(10)
		bit := uint(r.Intn(32))
		desc, site = flipRegisterBit(m, target, bit)
		if !ok {
			return desc, site, 0, 0, RegisterSpaceBits
		}
		b := benignBitsOf(mask)
		if bitIsBenign(mask, target, bit) {
			return desc, site, 0, b, RegisterSpaceBits
		}
		return desc, site, ids[target], b, RegisterSpaceBits

	case EquivPrune:
		if !ok {
			desc, site = ApplyRegisterFault(m, r)
			return desc, site, 0, 0, RegisterSpaceBits
		}
		b := benignBitsOf(mask)
		type span struct {
			target, bits int
			offset       uint
			id           uint64
		}
		var spans []span
		for g := 0; g < isa.NumGPR; g++ {
			if mask&(1<<g) == 0 {
				spans = append(spans, span{g, 32, 0, ids[g]})
			}
		}
		spans = append(spans, span{isa.NumGPR, 32, 0, ids[8]})
		if mask&(1<<isa.NumGPR) == 0 {
			spans = append(spans, span{isa.NumGPR + 1, isa.FlagsReadableBits, 0, ids[9]})
		}
		n := 0
		for _, s := range spans {
			n += s.bits
		}
		pick := r.Intn(n)
		for _, s := range spans {
			if pick >= s.bits {
				pick -= s.bits
				continue
			}
			bit := uint(pick) + s.offset
			desc, site = flipRegisterBit(m, s.target, bit)
			return desc + " [equiv]", site, s.id, b, n
		}
		panic("core: equivalence pick out of range")

	case EquivAudit:
		if !ok {
			// No partition, no claim to audit; skip the flip.  The desc is
			// deliberately not one of the Unapplied sentinels: the run
			// still classifies (necessarily Correct), mirroring the empty
			// candidate set of the dead-directed policy.
			return fmt.Sprintf("no partition at pc %#x", m.PC), Site{}, 0, 0, 0
		}
		b := benignBitsOf(mask)
		type span struct {
			target, bits int
			offset       uint
		}
		var spans []span
		for g := 0; g < isa.NumGPR; g++ {
			if mask&(1<<g) != 0 {
				spans = append(spans, span{g, 32, 0})
			}
		}
		if mask&(1<<isa.NumGPR) != 0 {
			spans = append(spans, span{isa.NumGPR + 1, 32, 0})
		} else {
			spans = append(spans, span{isa.NumGPR + 1, 32 - isa.FlagsReadableBits, isa.FlagsReadableBits})
		}
		n := 0
		for _, s := range spans {
			n += s.bits
		}
		if n == 0 {
			return fmt.Sprintf("no benign bits at pc %#x", m.PC), Site{}, 0, 0, 0
		}
		pick := r.Intn(n)
		for _, s := range spans {
			if pick >= s.bits {
				pick -= s.bits
				continue
			}
			bit := uint(pick) + s.offset
			desc, site = flipRegisterBit(m, s.target, bit)
			return desc + " [equiv-benign]", site, 0, b, n
		}
		panic("core: equivalence pick out of range")

	default:
		desc, site = ApplyRegisterFault(m, r)
		return desc, site, 0, 0, RegisterSpaceBits
	}
}

// EquivalenceStats aggregates what the partition did for a campaign.
type EquivalenceStats struct {
	Policy      EquivalencePolicy
	Experiments int    // register-region experiments that consulted the map
	Classes     int    // distinct equivalence classes sampled
	Candidates  uint64 // sum of per-injection candidate bits
	BenignBits  uint64 // sum of per-injection provably-benign bits
	Total       uint64 // sum of per-injection full spaces (320 each)
}

// BenignFraction returns the mean provably-benign share of the space.
func (s *EquivalenceStats) BenignFraction() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.BenignBits) / float64(s.Total)
}

// WeightedTally is a Tally over bit-mass instead of experiment counts:
// the Horvitz–Thompson estimator that undoes pruned sampling.  Each
// full-space experiment contributes RegisterSpaceBits of mass to its
// outcome; a pruned register experiment contributes its candidate mass
// (space minus benign bits) to its outcome and the benign remainder to
// Correct — benign bits were excluded precisely because flipping them
// provably classifies Correct.  All arithmetic is integer, so reweighted
// tables are byte-stable across runs and platforms.
type WeightedTally struct {
	Region      Region
	Experiments int
	Outcomes    [classify.NumOutcomes]uint64
	TotalMass   uint64
}

// Errors returns the manifested bit-mass.
func (t *WeightedTally) Errors() uint64 {
	return t.TotalMass - t.Outcomes[classify.Correct]
}

// ErrorRate returns the estimated full-space manifestation percentage.
func (t *WeightedTally) ErrorRate() float64 {
	if t.TotalMass == 0 {
		return 0
	}
	return 100 * float64(t.Errors()) / float64(t.TotalMass)
}

// ReweightTallies builds the per-region weighted tallies for a
// prune-mode campaign.  For any other policy the reweighting would
// double-count (annotate-mode experiments already sample benign bits),
// so callers gate on EquivPrune.
func ReweightTallies(regions []Region, experiments []Experiment) []WeightedTally {
	out := make([]WeightedTally, 0, len(regions))
	for _, region := range regions {
		t := WeightedTally{Region: region}
		for i := range experiments {
			e := &experiments[i]
			if e.Region != region {
				continue
			}
			t.Experiments++
			if region == RegionRegularReg && e.BenignBits > 0 {
				t.Outcomes[e.Outcome] += uint64(RegisterSpaceBits - e.BenignBits)
				t.Outcomes[classify.Correct] += uint64(e.BenignBits)
			} else {
				t.Outcomes[e.Outcome] += RegisterSpaceBits
			}
			t.TotalMass += RegisterSpaceBits
		}
		out = append(out, t)
	}
	return out
}

// EquivFinding is one campaign observation that contradicts a static
// equivalence claim — by construction an analyzer bug, not noise.
type EquivFinding struct {
	Kind string // "benign-manifested", "class-mixed", "data-benign-manifested"
	ID   string // experiment ID (or the first of the class)
	Msg  string
}

func (f EquivFinding) String() string { return fmt.Sprintf("%s: %s: %s", f.Kind, f.ID, f.Msg) }

// ValidateEquivalence checks finished experiments against the partition:
//
//   - A register experiment whose flipped bit the partition calls benign
//     (audit pilots, and annotate-mode draws that landed on benign bits)
//     must classify Correct.
//   - Register experiments in the same equivalence class that flipped
//     the same bit description must agree on outcome wherever they fired
//     on the same rank — a mixed class breaks the "one pilot stands for
//     all members" contract.
//   - A data/BSS experiment whose address the analysis claims
//     unreferenced must classify Correct.
//
// Findings are sorted for deterministic reports.
func ValidateEquivalence(em EquivalenceMap, experiments []Experiment) []EquivFinding {
	var out []EquivFinding

	type classKey struct {
		rank    int
		classID uint64
		desc    string
	}
	classes := make(map[classKey]map[classify.Outcome]string)

	for i := range experiments {
		e := &experiments[i]
		switch e.Region {
		case RegionRegularReg:
			benignPilot := e.ClassID == 0 && e.BenignBits > 0
			if benignPilot && e.Outcome != classify.Correct {
				out = append(out, EquivFinding{
					Kind: "benign-manifested", ID: e.ID(),
					Msg: fmt.Sprintf("%s at trigger %d rank %d classified %s — a provably-benign bit manifested",
						e.Desc, e.Trigger, e.Rank, e.Outcome),
				})
			}
			if e.ClassID != 0 {
				k := classKey{rank: e.Rank, classID: e.ClassID, desc: baseDesc(e.Desc)}
				if classes[k] == nil {
					classes[k] = make(map[classify.Outcome]string)
				}
				if _, seen := classes[k][e.Outcome]; !seen {
					classes[k][e.Outcome] = e.ID()
				}
			}
		case RegionData, RegionBSS:
			addr, ok := staticFaultAddr(e.Desc)
			if ok && em.StaticBenignAt(addr) && e.Outcome != classify.Correct {
				out = append(out, EquivFinding{
					Kind: "data-benign-manifested", ID: e.ID(),
					Msg: fmt.Sprintf("%s rank %d classified %s — fault in an unreferenced symbol manifested",
						e.Desc, e.Rank, e.Outcome),
				})
			}
		}
	}

	for k, outcomes := range classes {
		if len(outcomes) < 2 {
			continue
		}
		var parts []string
		firstID := ""
		for o, id := range outcomes {
			parts = append(parts, fmt.Sprintf("%s (%s)", o, id))
			if firstID == "" || id < firstID {
				firstID = id
			}
		}
		sort.Strings(parts)
		out = append(out, EquivFinding{
			Kind: "class-mixed", ID: firstID,
			Msg: fmt.Sprintf("class %#x rank %d %q has mixed outcomes: %s",
				k.classID, k.rank, k.desc, strings.Join(parts, ", ")),
		})
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return out[i].Msg < out[j].Msg
	})
	return out
}

// baseDesc strips the policy suffix (" [equiv]", " [live-directed]", …)
// so class grouping matches flips across policies.
func baseDesc(desc string) string {
	if i := strings.Index(desc, " ["); i >= 0 {
		return desc[:i]
	}
	return desc
}

// staticFaultAddr parses the address out of an ApplyStaticFault
// description ("Data 0x0001a2b4 bit 3", "BSS 0x…").
func staticFaultAddr(desc string) (uint32, bool) {
	var region string
	var addr uint32
	var bit int
	if _, err := fmt.Sscanf(desc, "%s 0x%08x bit %d", &region, &addr, &bit); err != nil {
		return 0, false
	}
	return addr, true
}
