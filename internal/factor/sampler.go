package factor

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// The sampler index is the column-to-row access path laid out flat.
// Sampling v reads vinc[v]..vinc[v+1] of inc — one record per
// (v, factor member) pair, in factor order — and the matching run
// voth[v]..voth[v+1] of oth, which holds each record's factor's other
// members. A variable's whole neighbourhood is therefore two
// contiguous reads followed by the member assignments themselves; no
// per-variable slice, Factor struct or Vars array is dereferenced.
//
// Other-members are denormalized: a factor of arity a is copied into
// oth once per member, a·(a−1) entries, so the index costs
// Σ arity·(arity−1) int32 plus 16 bytes per incidence.

// Incidence modes: how a factor's firing at v=1 and at v=0 follows
// from its other members' assignments. Fixed at build time from the
// factor's Kind and v's role in it.
const (
	modeEqual      uint32 = iota // all members equal
	modeAnd                      // all members 1
	modeOr                       // some member 1
	modeConsequent               // Imply; v is the consequent only
	modeAntecedent               // Imply; v is in the antecedent only, the consequent is stored last
	modeAlways                   // Imply; v is antecedent and consequent, so the factor always fires
	modeNever                    // unknown Kind: never fires

	modeBits = 3
	modeMask = 1<<modeBits - 1
)

// incidence is one (variable, factor member) record of the sampler
// index.
type incidence struct {
	// weight is the factor's Weight.
	weight float64
	// hdr is mode | usedOthers<<modeBits: usedOthers counts the
	// members other than v stored in oth (fewer than arity−1 when v
	// repeats inside the factor).
	hdr uint32
	// reserved is arity−1, the oth slots this record occupies, so a
	// variable's oth run spans Σ(arity−1) and reads fall out of the
	// offsets.
	reserved int32
}

// incidenceMode classifies factor f as seen from its member v.
func incidenceMode(f *Factor, v int32) uint32 {
	switch f.Kind {
	case Equal:
		return modeEqual
	case And:
		return modeAnd
	case Or:
		return modeOr
	case Imply:
		last := len(f.Vars) - 1
		cons := f.Vars[last] == v
		ante := slices.Contains(f.Vars[:last], v)
		switch {
		case ante && cons:
			return modeAlways
		case cons:
			return modeConsequent
		default:
			return modeAntecedent
		}
	default:
		return modeNever
	}
}

// buildIndex validates g.Factors and builds the sampler index in two
// factor-major passes: count each variable's incidences and oth slots,
// then scatter the records. The scatter walks factors backwards and
// fills each variable's run from its end, so a variable's records come
// out in ascending factor order — one record per occurrence, the order
// ConditionalLogOdds sums in.
func (g *Graph) buildIndex() error {
	n := g.NumVars
	vinc := make([]int32, n+1)
	voth := make([]int32, n+1)
	var nInc, nOth int64
	for fi := range g.Factors {
		vars := g.Factors[fi].Vars
		if len(vars) == 0 {
			return fmt.Errorf("factor: factor %d has no variables", fi)
		}
		for _, v := range vars {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("factor: factor %d references variable %d of %d", fi, v, n)
			}
			vinc[v]++
			voth[v] += int32(len(vars) - 1)
		}
		nInc += int64(len(vars))
		nOth += int64(len(vars)) * int64(len(vars)-1)
	}
	if nOth > math.MaxInt32 || nInc > math.MaxInt32 {
		return fmt.Errorf("factor: sampler index needs %d member slots, more than int32 offsets address", nOth)
	}
	// Inclusive prefix sums: vinc[v] and voth[v] become the ends of v's
	// runs; the scatter decrements them down to the starts.
	for v := 1; v < n; v++ {
		vinc[v] += vinc[v-1]
		voth[v] += voth[v-1]
	}
	vinc[n], voth[n] = int32(nInc), int32(nOth)
	inc := make([]incidence, nInc)
	oth := make([]int32, nOth)
	for fi := len(g.Factors) - 1; fi >= 0; fi-- {
		f := &g.Factors[fi]
		rsv := int32(len(f.Vars) - 1)
		for k := len(f.Vars) - 1; k >= 0; k-- {
			v := f.Vars[k]
			vinc[v]--
			voth[v] -= rsv
			slot := oth[voth[v] : voth[v]+rsv]
			used := 0
			for _, u := range f.Vars {
				if u != v {
					slot[used] = u
					used++
				}
			}
			inc[vinc[v]] = incidence{
				weight:   f.Weight,
				hdr:      incidenceMode(f, v) | uint32(used)<<modeBits,
				reserved: rsv,
			}
		}
	}
	g.vinc, g.voth, g.inc, g.oth = vinc, voth, inc, oth
	return nil
}

// logOdds is ConditionalLogOdds over an atomic assignment, read off the
// sampler index in one pass: each other member's assignment is loaded
// at most once, both firings are decided from those loads, and e1 and
// e0 accumulate in the same factor order — so the result is bit-
// identical. Safe for concurrent samplers (Hogwild!-Gibbs): v itself
// is never read and every other read is atomic. Assignments hold 0 or
// 1, so a member count decides every kind.
func (g *Graph) logOdds(v int, assign []int32) float64 {
	o := g.voth[v]
	var e1, e0 float64
	for _, r := range g.inc[g.vinc[v]:g.vinc[v+1]] {
		used := int32(r.hdr >> modeBits)
		others := g.oth[o : o+used]
		o += r.reserved
		var f1, f0 bool
		switch r.hdr & modeMask {
		case modeEqual:
			ones := onesAmong(assign, others)
			f1, f0 = ones == used, ones == 0
		case modeAnd:
			f1 = onesAmong(assign, others) == used
		case modeOr:
			f1, f0 = true, onesAmong(assign, others) > 0
		case modeConsequent:
			// v=1 satisfies the implication; v=0 does iff some
			// antecedent is 0.
			f1, f0 = true, onesAmong(assign, others) < used
		case modeAntecedent:
			// v=0 falsifies the antecedent; v=1 leaves it to the other
			// antecedents and the consequent.
			ante := used - 1
			f1 = onesAmong(assign, others[:ante]) < ante || atomic.LoadInt32(&assign[others[ante]]) == 1
			f0 = true
		case modeAlways:
			f1, f0 = true, true
		}
		if f1 {
			e1 += r.weight
		}
		if f0 {
			e0 += r.weight
		}
	}
	return e1 - e0
}

// onesAmong counts the members assigned 1, loading each atomically.
func onesAmong(assign []int32, members []int32) int32 {
	var n int32
	for _, u := range members {
		n += atomic.LoadInt32(&assign[u])
	}
	return n
}

// reads is the column-to-row access volume of sampling v — one read
// per member of every incident factor, Σ arity — which the index
// offsets encode: one record plus arity−1 reserved slots per
// incidence.
func (g *Graph) reads(v int) int64 {
	return int64(g.voth[v+1]-g.voth[v]) + int64(g.vinc[v+1]-g.vinc[v])
}

// Degree returns the number of incidences of v: one per occurrence of
// v in a factor's Vars.
func (g *Graph) Degree(v int) int { return int(g.vinc[v+1] - g.vinc[v]) }
