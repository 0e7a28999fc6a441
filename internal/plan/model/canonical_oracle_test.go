package model

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// randomCanonModel draws a model that need not be solvable, or even valid,
// but exercises everything the canonical form reads: IDs that are prefixes
// of one another or carry the record separators, defaulted weights and
// durations, unsorted slot lists with repeats, overlapping and singleton
// SameSlot groups, multi-set capacities with repeated members, uniform
// values of every printed shape with the tail missing, and defaulted or
// explicit SkipPenalty and BigM.
func randomCanonModel(rng *rand.Rand) *Model {
	n := 1 + rng.Intn(14)
	m := &Model{
		Name:         "rand",
		NumSlots:     1 + rng.Intn(12),
		RequireAll:   rng.Intn(2) == 0,
		ZeroConflict: rng.Intn(2) == 0,
	}
	if rng.Intn(2) == 0 {
		m.SkipPenalty = 1 + rng.Intn(50)
	}
	if rng.Intn(2) == 0 {
		m.BigM = 1 + rng.Intn(5000)
	}
	seen := map[string]bool{}
	for len(m.Items) < n {
		var id string
		switch rng.Intn(4) {
		case 0: // unpadded numbering: "i1" is a prefix of "i10"
			id = fmt.Sprint("i", rng.Intn(120))
		case 1: // fixed width, as the generated inventories name elements
			id = fmt.Sprintf("e%04d", rng.Intn(10000))
		case 2: // an earlier ID extended by a byte on either side of the separators
			if len(m.Items) == 0 {
				continue
			}
			id = m.Items[rng.Intn(len(m.Items))].ID + string("!,0;=a|~\x80"[rng.Intn(9)])
		default:
			id = string("ab|=,;"[rng.Intn(6)]) + fmt.Sprint(rng.Intn(9))
		}
		if seen[id] {
			continue
		}
		seen[id] = true
		m.Items = append(m.Items, Item{ID: id, Weight: rng.Intn(4), Duration: rng.Intn(3)})
	}
	set := func() []int {
		out := make([]int, 1+rng.Intn(n))
		for k := range out {
			out[k] = rng.Intn(n)
		}
		return out
	}
	sets := func() [][]int {
		out := make([][]int, rng.Intn(4))
		for k := range out {
			out[k] = set()
		}
		return out
	}
	slots := func() [][]int {
		var out [][]int
		switch rng.Intn(3) {
		case 0:
			return nil
		case 1:
			out = make([][]int, n)
		default: // shorter than Items
			out = make([][]int, rng.Intn(n))
		}
		for i := range out {
			for k := rng.Intn(4); k > 0; k-- {
				out[i] = append(out[i], rng.Intn(m.NumSlots))
			}
		}
		return out
	}
	m.Forbidden, m.ConflictSlots = slots(), slots()
	for k := rng.Intn(3); k > 0; k-- {
		m.Capacities = append(m.Capacities, Capacity{Sets: sets(), Cap: rng.Intn(40), BucketSlots: rng.Intn(4)})
	}
	for k := rng.Intn(3); k > 0; k-- {
		m.GroupCounts = append(m.GroupCounts, GroupCount{Groups: sets(), Cap: rng.Intn(5)})
	}
	for k := rng.Intn(4); k > 0; k-- {
		m.SameSlot = append(m.SameSlot, set())
	}
	for k := rng.Intn(3); k > 0; k-- {
		m.Localized = append(m.Localized, Localized{Groups: sets()})
	}
	shapes := []float64{0, math.Copysign(0, -1), 1, -5, 5.5, 1e21, 1e-7, 123456789, 1.0 / 3, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64}
	for k := rng.Intn(3); k > 0; k-- {
		u := Uniform{MaxDist: shapes[rng.Intn(len(shapes))], Values: make([]float64, rng.Intn(n+1))}
		for i := range u.Values {
			if rng.Intn(2) == 0 {
				u.Values[i] = shapes[rng.Intn(len(shapes))]
			} else {
				u.Values[i] = rng.NormFloat64() * 100
			}
		}
		m.Uniform = append(m.Uniform, u)
	}
	return m
}

// TestCanonicalMatchesOracle holds Fingerprint and ItemSignatures to the
// implementations they replaced, bit for bit, before and after Normalize.
func TestCanonicalMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for k := 0; k < 3000; k++ {
		m := randomCanonModel(rng)
		for _, stage := range []string{"raw", "normalized"} {
			if got, want := m.Fingerprint(), m.oracleFingerprint(); got != want {
				t.Fatalf("model %d (%s): fingerprint %s, oracle %s\n%+v", k, stage, got, want, m)
			}
			if got, want := m.FamilyKey(), fmt.Sprintf("%s|%d|%t|%t", m.Name, m.NumSlots, m.RequireAll, m.ZeroConflict); got != want {
				t.Fatalf("model %d (%s): family key %q, oracle %q", k, stage, got, want)
			}
			got, want := m.ItemSignatures(), m.oracleItemSignatures()
			if len(got) != len(want) {
				t.Fatalf("model %d (%s): %d signatures, oracle %d", k, stage, len(got), len(want))
			}
			for id, sig := range want {
				if got[id] != sig {
					t.Fatalf("model %d (%s): item %q signature %x, oracle %x", k, stage, id, got[id], sig)
				}
			}
			m.Normalize()
		}
	}
}

// The functions below are Fingerprint and ItemSignatures as they stood
// before canonical.go stopped building a string per record: sorted string
// records through fmt. They are the reference the differential tests hold
// the current ones to, byte for byte.

func (m *Model) oracleFingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "slots=%d;requireAll=%t;skip=%d;bigM=%d;zeroConflict=%t;\n",
		m.NumSlots, m.RequireAll, m.effectiveSkipPenalty(), m.effectiveBigM(), m.ZeroConflict)
	for _, rec := range m.oracleCanonicalItems() {
		fmt.Fprintf(h, "item:%s\n", rec)
	}
	for _, fam := range [][]string{
		oraclePrefixed("cap", m.oracleCanonicalCapacities()),
		oraclePrefixed("gc", m.oracleCanonicalGroupCounts()),
		oraclePrefixed("same", m.oracleCanonicalSameSlot()),
		oraclePrefixed("uni", m.oracleCanonicalUniform()),
		oraclePrefixed("loc", m.oracleCanonicalLocalized()),
	} {
		for _, rec := range fam {
			fmt.Fprintf(h, "%s\n", rec)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (m *Model) oracleItemSignatures() map[string]uint64 {
	sigs := make(map[string]uint64, len(m.Items))
	for i := range m.Items {
		f := fnv.New64a()
		fmt.Fprint(f, m.oracleItemRecord(i))
		sigs[m.Items[i].ID] = f.Sum64()
	}
	return sigs
}

// oracleItemRecord serializes one item's semantics (effective weight and
// duration, sorted forbidden and conflict slots).
func (m *Model) oracleItemRecord(i int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|w=%d|d=%d", m.Items[i].ID, m.Weight(i), m.Duration(i))
	if i < len(m.Forbidden) && len(m.Forbidden[i]) > 0 {
		fmt.Fprintf(&b, "|f=%v", oracleSortedCopy(m.Forbidden[i]))
	}
	if i < len(m.ConflictSlots) && len(m.ConflictSlots[i]) > 0 {
		fmt.Fprintf(&b, "|c=%v", oracleSortedCopy(m.ConflictSlots[i]))
	}
	return b.String()
}

// oracleCanonicalItems returns one record per item, sorted by ID.
func (m *Model) oracleCanonicalItems() []string {
	recs := make([]string, len(m.Items))
	for i := range m.Items {
		recs[i] = m.oracleItemRecord(i)
	}
	sort.Strings(recs)
	return recs
}

// oracleIdSet maps an index set to a sorted, comma-joined list of item IDs.
func (m *Model) oracleIdSet(set []int) string {
	ids := make([]string, len(set))
	for k, i := range set {
		ids[k] = m.Items[i].ID
	}
	sort.Strings(ids)
	return strings.Join(ids, ",")
}

// oracleIdSets canonicalizes a list of index sets: each set becomes a sorted ID
// list, and the sets themselves are sorted.
func (m *Model) oracleIdSets(sets [][]int) []string {
	out := make([]string, len(sets))
	for k, s := range sets {
		out[k] = m.oracleIdSet(s)
	}
	sort.Strings(out)
	return out
}

func (m *Model) oracleCanonicalCapacities() []string {
	recs := make([]string, len(m.Capacities))
	for k, c := range m.Capacities {
		bucket := c.BucketSlots
		if bucket <= 1 {
			bucket = 1
		}
		recs[k] = fmt.Sprintf("cap=%d|bucket=%d|sets={%s}", c.Cap, bucket, strings.Join(m.oracleIdSets(c.Sets), ";"))
	}
	sort.Strings(recs)
	return recs
}

func (m *Model) oracleCanonicalGroupCounts() []string {
	recs := make([]string, len(m.GroupCounts))
	for k, g := range m.GroupCounts {
		recs[k] = fmt.Sprintf("cap=%d|groups={%s}", g.Cap, strings.Join(m.oracleIdSets(g.Groups), ";"))
	}
	sort.Strings(recs)
	return recs
}

func (m *Model) oracleCanonicalSameSlot() []string {
	var recs []string
	for _, grp := range m.SameSlot {
		if len(grp) > 1 {
			recs = append(recs, m.oracleIdSet(grp))
		}
	}
	sort.Strings(recs)
	return recs
}

func (m *Model) oracleCanonicalUniform() []string {
	recs := make([]string, len(m.Uniform))
	for k, u := range m.Uniform {
		pairs := make([]string, len(m.Items))
		for i := range m.Items {
			v := 0.0
			if i < len(u.Values) {
				v = u.Values[i]
			}
			pairs[i] = fmt.Sprintf("%s=%g", m.Items[i].ID, v)
		}
		sort.Strings(pairs)
		recs[k] = fmt.Sprintf("max=%g|vals={%s}", u.MaxDist, strings.Join(pairs, ","))
	}
	sort.Strings(recs)
	return recs
}

func (m *Model) oracleCanonicalLocalized() []string {
	recs := make([]string, len(m.Localized))
	for k, l := range m.Localized {
		recs[k] = fmt.Sprintf("groups={%s}", strings.Join(m.oracleIdSets(l.Groups), ";"))
	}
	sort.Strings(recs)
	return recs
}

func oraclePrefixed(tag string, recs []string) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = tag + ":" + r
	}
	return out
}

func oracleSortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}
