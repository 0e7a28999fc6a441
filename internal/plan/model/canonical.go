package model

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"hash/fnv"
	"slices"
	"strconv"
	"strings"
)

// Fingerprint returns a deterministic canonical hash of the model's
// semantics: two models describing the same scheduling problem hash
// identically regardless of the order in which items, constraints, or the
// sets inside constraints were constructed, while any semantic change —
// a different duration, capacity value, forbidden slot, window length, or
// objective mode — produces a different hash.
//
// The hash is the plan cache's key (internal/plan/cache): thousands of
// tenants submitting structurally identical intents translate to models
// with the same fingerprint and therefore solve once. Items are
// canonicalized by ID (Validate guarantees IDs are unique), constraint
// sets become sorted ID lists, and the constraints of each family are
// sorted by their serialized form; constraint names are deliberately
// excluded — they label diagnostics, not semantics. Defaulted fields
// (SkipPenalty, BigM, effective weights and durations) are folded in at
// their effective values so a pre- and post-Normalize model hash the same.
func (m *Model) Fingerprint() string {
	c := newCanon(m)
	h := sha256.New()
	c.str("slots=").int(m.NumSlots).str(";requireAll=").bool(m.RequireAll)
	c.str(";skip=").int(m.effectiveSkipPenalty()).str(";bigM=").int(m.effectiveBigM())
	c.str(";zeroConflict=").bool(m.ZeroConflict).str(";\n")
	h.Write(c.buf)
	c.buf = c.buf[:0]

	// Rank order is byte order unless one ID is a prefix of another, so the
	// sort of these records (and of the uniform pairs below) mostly
	// confirms the order they were written in.
	for _, i := range c.byRank {
		lo := len(c.buf)
		c.str("item:").itemRecord(int(i))
		c.rec(lo)
	}
	c.flush(h)

	for _, cp := range m.Capacities {
		c.idSets(cp.Sets)
		lo := len(c.buf)
		c.str("cap:cap=").int(cp.Cap).str("|bucket=").int(max(cp.BucketSlots, 1))
		c.str("|sets={").join(';').str("}")
		c.rec(lo)
	}
	c.flush(h)

	for _, g := range m.GroupCounts {
		c.idSets(g.Groups)
		lo := len(c.buf)
		c.str("gc:cap=").int(g.Cap).str("|groups={").join(';').str("}")
		c.rec(lo)
	}
	c.flush(h)

	for _, grp := range m.SameSlot {
		if len(grp) > 1 {
			lo := len(c.buf)
			c.str("same:").idSet(grp)
			c.rec(lo)
		}
	}
	c.flush(h)

	for _, u := range m.Uniform {
		for _, i := range c.byRank {
			v := 0.0
			if int(i) < len(u.Values) {
				v = u.Values[i]
			}
			lo := len(c.buf)
			c.str(m.Items[i].ID).str("=").float(v)
			c.parts = append(c.parts, span{lo, len(c.buf)})
		}
		c.sort(c.parts)
		lo := len(c.buf)
		c.str("uni:max=").float(u.MaxDist).str("|vals={").join(',').str("}")
		c.rec(lo)
	}
	c.flush(h)

	for _, l := range m.Localized {
		c.idSets(l.Groups)
		lo := len(c.buf)
		c.str("loc:groups={").join(';').str("}")
		c.rec(lo)
	}
	c.flush(h)

	return hex.EncodeToString(h.Sum(nil))
}

// FamilyKey returns a coarse grouping key for warm-start candidate lookup:
// models in the same family describe the same kind of problem (window
// length, completeness requirement, conflict mode) and are worth diffing
// for a small delta; models in different families never warm-start each
// other. Item identities and constraint values are deliberately excluded
// so an intent whose fleet gained a node or changed an attribute still
// lands in its predecessor's family.
func (m *Model) FamilyKey() string {
	return m.Name + "|" + strconv.Itoa(m.NumSlots) + "|" + strconv.FormatBool(m.RequireAll) + "|" + strconv.FormatBool(m.ZeroConflict)
}

// ItemSignatures returns a per-item semantic signature keyed by item ID:
// two models assign the same signature to an ID exactly when that item's
// weight, duration, forbidden slots, and conflict slots are identical.
// The plan cache diffs the signature maps of a new model against a cached
// one to size the delta between them and decide whether the cached
// incumbent is close enough to seed a warm-start solve.
func (m *Model) ItemSignatures() map[string]uint64 {
	sigs := make(map[string]uint64, len(m.Items))
	c := canon{m: m}
	f := fnv.New64a()
	for i := range m.Items {
		c.buf = c.buf[:0]
		c.itemRecord(i)
		f.Reset()
		f.Write(c.buf)
		sigs[m.Items[i].ID] = f.Sum64()
	}
	return sigs
}

// effectiveSkipPenalty mirrors Normalize's default without mutating m.
func (m *Model) effectiveSkipPenalty() int {
	if m.SkipPenalty == 0 {
		return 2 * (m.NumSlots + 1)
	}
	return m.SkipPenalty
}

// effectiveBigM mirrors Normalize's default without mutating m.
func (m *Model) effectiveBigM() int {
	if m.BigM != 0 {
		return m.BigM
	}
	total := 0
	for _, it := range m.Items {
		w := it.Weight
		if w <= 0 {
			w = 1
		}
		total += w
	}
	return total*(m.NumSlots+1) + m.effectiveSkipPenalty()*total + 1
}

// span is one serialized record (or one part of a record being built)
// held in canon.buf.
type span struct{ lo, hi int }

// canon serializes a model's canonical records. Everything is appended to
// one buffer and remembered as spans of it, so putting records in order is
// sorting spans, and the item IDs are ranked once so that a set's sorted ID
// list is a sort of small integers.
type canon struct {
	m *Model
	// byRank lists the item indexes in ascending ID order; rank inverts it.
	byRank, rank []int32
	buf          []byte
	// recs are the finished records of the family being written; parts are
	// the sets (or pairs) of the record being built.
	recs, parts []span
	ranks       []int32
	slots       []int
}

func newCanon(m *Model) *canon {
	n := len(m.Items)
	idx := make([]int32, 2*n)
	c := &canon{m: m, byRank: idx[:n], rank: idx[n:], buf: make([]byte, 0, 64*n+128)}
	for i := range c.byRank {
		c.byRank[i] = int32(i)
	}
	slices.SortFunc(c.byRank, func(a, b int32) int { return strings.Compare(m.Items[a].ID, m.Items[b].ID) })
	for r, i := range c.byRank {
		c.rank[i] = int32(r)
	}
	return c
}

func (c *canon) str(s string) *canon { c.buf = append(c.buf, s...); return c }
func (c *canon) int(v int) *canon    { c.buf = strconv.AppendInt(c.buf, int64(v), 10); return c }
func (c *canon) bool(v bool) *canon  { c.buf = strconv.AppendBool(c.buf, v); return c }

// float appends v as fmt's %g prints it.
func (c *canon) float(v float64) *canon {
	c.buf = strconv.AppendFloat(c.buf, v, 'g', -1, 64)
	return c
}

// itemRecord appends one item's semantics: effective weight and duration,
// sorted forbidden and conflict slots.
func (c *canon) itemRecord(i int) {
	m := c.m
	c.str(m.Items[i].ID).str("|w=").int(m.Weight(i)).str("|d=").int(m.Duration(i))
	if i < len(m.Forbidden) && len(m.Forbidden[i]) > 0 {
		c.str("|f=").slotList(m.Forbidden[i])
	}
	if i < len(m.ConflictSlots) && len(m.ConflictSlots[i]) > 0 {
		c.str("|c=").slotList(m.ConflictSlots[i])
	}
}

// slotList appends xs sorted, as fmt's %v prints a slice: "[1 3 7]".
func (c *canon) slotList(xs []int) {
	c.slots = append(c.slots[:0], xs...)
	slices.Sort(c.slots)
	for k, x := range c.slots {
		if k == 0 {
			c.str("[")
		} else {
			c.str(" ")
		}
		c.int(x)
	}
	c.str("]")
}

// idSet appends an index set as its item IDs, sorted and comma-joined.
func (c *canon) idSet(set []int) {
	c.ranks = c.ranks[:0]
	for _, i := range set {
		c.ranks = append(c.ranks, c.rank[i])
	}
	slices.Sort(c.ranks)
	for k, r := range c.ranks {
		if k > 0 {
			c.str(",")
		}
		c.str(c.m.Items[c.byRank[r]].ID)
	}
}

// idSets appends each index set as a sorted ID list and leaves the lists,
// themselves sorted, in parts.
func (c *canon) idSets(sets [][]int) {
	for _, s := range sets {
		lo := len(c.buf)
		c.idSet(s)
		c.parts = append(c.parts, span{lo, len(c.buf)})
	}
	c.sort(c.parts)
}

// join appends the parts separated by sep and forgets them.
func (c *canon) join(sep byte) *canon {
	for k, p := range c.parts {
		if k > 0 {
			c.buf = append(c.buf, sep)
		}
		c.buf = append(c.buf, c.buf[p.lo:p.hi]...)
	}
	c.parts = c.parts[:0]
	return c
}

func (c *canon) sort(spans []span) {
	slices.SortFunc(spans, func(a, b span) int { return bytes.Compare(c.buf[a.lo:a.hi], c.buf[b.lo:b.hi]) })
}

// rec ends the record begun at lo, a line of the family being written.
func (c *canon) rec(lo int) {
	c.recs = append(c.recs, span{lo, len(c.buf)})
	c.buf = append(c.buf, '\n')
}

// flush writes one family's lines to h in byte order and empties the
// buffer.
func (c *canon) flush(h hash.Hash) {
	c.sort(c.recs)
	for _, r := range c.recs {
		h.Write(c.buf[r.lo : r.hi+1])
	}
	c.recs, c.buf = c.recs[:0], c.buf[:0]
}
