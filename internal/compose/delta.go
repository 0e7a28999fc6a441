// Package compose is CORNET's concurrent change composition layer: the
// missing piece between "one author designs one workflow" (the paper's
// model) and production change management, where many teams submit changes
// against the same network at the same time.
//
// A change's network footprint is captured as a Delta — a canonical set of
// scoped operations (Op) over a hierarchical namespace of network elements
// — and a pluggable CompositionStrategy decides how concurrently submitted
// deltas interact: disjoint-subtree granularity prevents conflicts
// structurally, node granularity conflicts only on exact element overlap,
// and attribute granularity lets two teams touch the same element as long
// as they write different attributes. Validated deltas merge with an
// idempotent, commutative, and associative union (the ⊕ of the composition
// laws), so retried and reordered submissions are safe; conflicting ones
// are refused with a machine-readable Diagnosis naming exactly which
// nodes and attributes collide and which strategy refused.
//
// The Composer turns the algebra into a runtime: submissions arriving
// within a composition window whose scopes compose are merged into one
// composed change and solved as a single schedule; the rest queue behind
// the conflicting change or are rejected with the diagnosis.
package compose

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// Path is a hierarchical network scope, root first — e.g.
// {"east", "vce-000"} for one node inside the east market, or {"east"}
// for a claim on the whole east subtree. Subtree-granularity conflict
// detection treats a shorter path as an ancestor of every path it
// prefixes.
type Path []string

// String renders the path with "/" separators ("" for an empty path).
func (p Path) String() string { return strings.Join(p, "/") }

// ContainsOrEqual reports whether p is an ancestor of q or equal to it:
// every component of p matches the corresponding component of q.
func (p Path) ContainsOrEqual(q Path) bool {
	if len(p) > len(q) {
		return false
	}
	for i, c := range p {
		if q[i] != c {
			return false
		}
	}
	return true
}

// compare orders paths component-wise (shorter prefix first), giving the
// canonical op order that makes Merge deterministic.
func (p Path) compare(q Path) int {
	for i := 0; i < len(p) && i < len(q); i++ {
		if p[i] != q[i] {
			if p[i] < q[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(p) < len(q):
		return -1
	case len(p) > len(q):
		return 1
	}
	return 0
}

// Op is one scoped operation of a change: an intended mutation of the
// subtree or node at Path. Attr narrows the op to one attribute of the
// node; the empty Attr claims the whole node (and, under attribute
// granularity, conflicts with every attribute-level op on the same path).
// Sig is the semantic signature of the intended mutation: two ops are the
// same mutation — and therefore compose idempotently, never conflicting —
// exactly when path, attribute, and signature all match.
type Op struct {
	// Path scopes the op to a node or subtree.
	Path Path `json:"path"`
	// Attr is the attribute written ("" = the whole node).
	Attr string `json:"attr,omitempty"`
	// Sig is the mutation's semantic signature.
	Sig uint64 `json:"sig"`
}

// less orders ops canonically by (path, attr, sig).
func (o Op) less(p Op) bool {
	if c := o.Path.compare(p.Path); c != 0 {
		return c < 0
	}
	if o.Attr != p.Attr {
		return o.Attr < p.Attr
	}
	return o.Sig < p.Sig
}

// Delta is one change's network footprint: the canonical op set that the
// composition strategies validate and merge. Construct with NewDelta and
// the Add helpers, or fill the fields and call Canon.
type Delta struct {
	// ChangeID identifies the change this delta belongs to (the same id
	// that keys the change's event-journal timeline).
	ChangeID string `json:"change_id"`
	// Tenant attributes the delta to the submitting team ("" when none).
	Tenant string `json:"tenant,omitempty"`
	// Ops is the op set; keep it canonical via Canon.
	Ops []Op `json:"ops"`
}

// NewDelta returns an empty delta for a change.
func NewDelta(changeID, tenant string) *Delta {
	return &Delta{ChangeID: changeID, Tenant: tenant}
}

// AddNode appends a whole-node op; returns d for chaining.
func (d *Delta) AddNode(p Path, sig uint64) *Delta {
	d.Ops = append(d.Ops, Op{Path: p, Sig: sig})
	return d
}

// AddAttr appends an attribute-level op; returns d for chaining.
func (d *Delta) AddAttr(p Path, attr string, sig uint64) *Delta {
	d.Ops = append(d.Ops, Op{Path: p, Attr: attr, Sig: sig})
	return d
}

// Canon sorts the op set by (path, attr, sig) and removes exact
// duplicates, the canonical form every composition operation assumes.
// It returns d for chaining.
func (d *Delta) Canon() *Delta {
	sort.Slice(d.Ops, func(i, j int) bool { return d.Ops[i].less(d.Ops[j]) })
	out := d.Ops[:0]
	for i, op := range d.Ops {
		if i > 0 && samePathOp(op, d.Ops[i-1]) {
			continue
		}
		out = append(out, op)
	}
	d.Ops = out
	return d
}

// Equal reports whether two deltas carry the same canonical op set
// (change id and tenant excluded — equality is about the footprint).
func (d *Delta) Equal(o *Delta) bool {
	a := (&Delta{Ops: append([]Op(nil), d.Ops...)}).Canon()
	b := (&Delta{Ops: append([]Op(nil), o.Ops...)}).Canon()
	if len(a.Ops) != len(b.Ops) {
		return false
	}
	for i := range a.Ops {
		if !samePathOp(a.Ops[i], b.Ops[i]) {
			return false
		}
	}
	return true
}

// footprint hashes where a canonical delta acts — its (Path, Attr) set —
// leaving out what it does there (Sig) and on whose behalf (ChangeID,
// Tenant): a team's next change to the same scope has the same footprint
// whatever version it rolls out. The composer's cohort rule recognises
// returning submitters by it.
func (d *Delta) footprint() uint64 {
	h := fnv.New64a()
	for i, op := range d.Ops {
		if i > 0 && op.Attr == d.Ops[i-1].Attr && op.Path.compare(d.Ops[i-1].Path) == 0 {
			continue // same place, another signature
		}
		for _, c := range op.Path {
			fmt.Fprintf(h, "%s\x1f", c)
		}
		fmt.Fprintf(h, "\x1e%s\x1d", op.Attr)
	}
	return h.Sum64()
}

// samePathOp compares two ops field-wise; Path is a slice, so the
// comparison is by contents, not by slice header.
func samePathOp(a, b Op) bool {
	return a.Path.compare(b.Path) == 0 && a.Attr == b.Attr && a.Sig == b.Sig
}

// Merge is the composition operator ⊕: the canonical union of the
// operands' op sets under the given composed change id. Because op
// identity is the full (path, attr, sig) triple and the result is
// canonicalized, Merge is idempotent (d ⊕ d = d), commutative, and
// associative — retries, duplicate submissions, and any grouping or
// ordering of the operands produce the same composed delta. The property
// tests in this package assert the laws over randomized permutations.
func Merge(changeID string, deltas ...*Delta) *Delta {
	out := &Delta{ChangeID: changeID}
	for _, d := range deltas {
		out.Ops = append(out.Ops, d.Ops...)
	}
	return out.Canon()
}

// Sig hashes the given strings into an op signature (FNV-1a with field
// separators); the conventional way to sign attribute values and change
// payloads.
func Sig(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%s\x1f", p)
	}
	return h.Sum64()
}
