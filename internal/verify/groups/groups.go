// Package groups derives study and control groups for change impact
// verification (Section 3.5.1, Fig. 14). The study group is the set of
// instances where the change was implemented; the control group is derived
// automatically from topology and inventory — e.g. first-hop neighbors with
// the same hardware version as the study group.
package groups

import (
	"fmt"
	"sort"

	"cornet/internal/inventory"
	"cornet/internal/topology"
)

// Criterion enumerates the control-group selection criteria observed in
// Fig. 14's usage data.
type Criterion string

const (
	// FirstTier selects 1-hop topology neighbors of the study group.
	FirstTier Criterion = "1st-tier"
	// SecondTier selects nodes at distance exactly 2.
	SecondTier Criterion = "2nd-tier"
	// SecondMinusFirst selects 2nd-tier nodes that are not also 1st-tier
	// of any study node (the "2nd minus 1st" composition).
	SecondMinusFirst Criterion = "2nd-minus-1st"
	// SameAttribute selects non-study nodes sharing attribute values with
	// the study group (e.g. same market), topology-free.
	SameAttribute Criterion = "same-attribute"
)

// Selector derives control groups.
type Selector struct {
	Topo *topology.Graph
	Inv  *inventory.Inventory
}

// Options refine selection.
type Options struct {
	// MatchAttrs restricts control candidates to those sharing each listed
	// attribute's value with at least one study node (e.g. hw_version, so
	// the control has the same hardware as the study group).
	MatchAttrs []string
	// Attribute names the attribute for the SameAttribute criterion
	// (defaults to market).
	Attribute string
	// MaxSize caps the control group (0 = unlimited); nearest members are
	// preferred in deterministic (sorted) order.
	MaxSize int
}

// Control derives the control group for a study group under a criterion.
// Study members are never part of the control group.
func (s *Selector) Control(study []string, c Criterion, opt Options) ([]string, error) {
	if len(study) == 0 {
		return nil, fmt.Errorf("groups: empty study group")
	}
	inStudy := map[string]bool{}
	for _, id := range study {
		inStudy[id] = true
	}
	cand := map[string]bool{}
	switch c {
	case FirstTier, SecondTier, SecondMinusFirst:
		if s.Topo == nil {
			return nil, fmt.Errorf("groups: criterion %s needs a topology", c)
		}
		first := map[string]bool{}
		second := map[string]bool{}
		for _, id := range study {
			for _, n := range s.Topo.KHop(id, 1) {
				first[n] = true
			}
			for _, n := range s.Topo.KHop(id, 2) {
				second[n] = true
			}
		}
		switch c {
		case FirstTier:
			cand = first
		case SecondTier:
			cand = second
		case SecondMinusFirst:
			for n := range second {
				if !first[n] {
					cand[n] = true
				}
			}
		}
	case SameAttribute:
		if s.Inv == nil {
			return nil, fmt.Errorf("groups: criterion %s needs an inventory", c)
		}
		attr := opt.Attribute
		if attr == "" {
			attr = inventory.AttrMarket
		}
		vals := map[string]bool{}
		for _, id := range study {
			if e, ok := s.Inv.Get(id); ok {
				for _, v := range e.Values(attr) {
					vals[v] = true
				}
			}
		}
		for v := range vals {
			for _, id := range s.Inv.ByAttr(attr, v) {
				cand[id] = true
			}
		}
	default:
		return nil, fmt.Errorf("groups: unknown criterion %q", c)
	}

	// Remove study members; apply attribute matching.
	var out []string
	for id := range cand {
		if inStudy[id] {
			continue
		}
		if len(opt.MatchAttrs) > 0 && s.Inv != nil {
			if !s.matches(id, study, opt.MatchAttrs) {
				continue
			}
		}
		out = append(out, id)
	}
	sort.Strings(out)
	if opt.MaxSize > 0 && len(out) > opt.MaxSize {
		out = out[:opt.MaxSize]
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("groups: criterion %s produced an empty control group", c)
	}
	return out, nil
}

// matches reports whether candidate id shares every listed attribute with
// at least one study node.
func (s *Selector) matches(id string, study []string, attrs []string) bool {
	e, ok := s.Inv.Get(id)
	if !ok {
		return false
	}
	for _, attr := range attrs {
		want := map[string]bool{}
		for _, sid := range study {
			if se, ok := s.Inv.Get(sid); ok {
				for _, v := range se.Values(attr) {
					want[v] = true
				}
			}
		}
		matched := false
		for _, v := range e.Values(attr) {
			if want[v] {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}
