package serve

import (
	"errors"
	"fmt"
	"sort"

	"cornet/internal/compose"
	"cornet/internal/inventory"
	"cornet/internal/plan/intent"
	"cornet/internal/plan/translate"
)

// Scope is a change's declared network scope — the scope fields of the
// "compose" object of a POST /api/wf/execute body.
type Scope struct {
	// Scope lists fleet element ids the change touches.
	Scope []string `json:"scope,omitempty"`
	// Markets expands to every fleet element in the named markets.
	Markets []string `json:"markets,omitempty"`
	// Attrs narrows listed elements to attribute-level ops (element id ->
	// attribute -> intended value), letting attribute-granularity changes
	// share a node. Elements listed in Attrs must be in scope.
	Attrs map[string]map[string]string `json:"attrs,omitempty"`
}

// resolve expands the scope over an inventory into the sorted element ids
// it names.
func (sc Scope) resolve(inv *inventory.Inventory) ([]string, error) {
	ids := map[string]bool{}
	for _, id := range sc.Scope {
		if _, ok := inv.Get(id); !ok {
			return nil, fmt.Errorf("compose scope: unknown element %q", id)
		}
		ids[id] = true
	}
	for _, m := range sc.Markets {
		members := inv.ByAttr(inventory.AttrMarket, m)
		if len(members) == 0 {
			return nil, fmt.Errorf("compose scope: market %q matches no elements", m)
		}
		for _, id := range members {
			ids[id] = true
		}
	}
	if len(ids) == 0 {
		return nil, errors.New("compose scope: empty (set scope and/or markets)")
	}
	for id := range sc.Attrs {
		if !ids[id] {
			return nil, fmt.Errorf("compose attrs: element %q not in scope", id)
		}
	}
	return sortedKeys(ids), nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// PayloadSig signs a submission's executable payload (workflow API plus
// inputs) — the identity by which the solve decides whether two co-claiming
// members of one instance can share a single execution.
func PayloadSig(api string, inputs map[string]string) uint64 {
	parts := []string{api}
	for _, k := range sortedKeys(inputs) {
		parts = append(parts, k, inputs[k])
	}
	return compose.Sig(parts...)
}

// scopePath places a fleet element in the composition namespace:
// {market, id}, or {id} when the element carries no market.
func scopePath(inv *inventory.Inventory, id string) compose.Path {
	if e, ok := inv.Get(id); ok {
		if m, ok := e.Attr(inventory.AttrMarket); ok && m != "" {
			return compose.Path{m, id}
		}
	}
	return compose.Path{id}
}

// Delta derives a change's delta: translate the scope's subset of inv under
// req and sign each element with its model item signature XOR the payload
// signature, so two changes produce the identical op — and compose
// idempotently — exactly when they would do the same thing to the same
// element. Elements with declared Attrs emit attribute-level ops instead of
// a whole-node claim.
func Delta(changeID, tenant string, req *intent.Request, inv *inventory.Inventory, sc Scope, paySig uint64) (*compose.Delta, error) {
	ids, err := sc.resolve(inv)
	if err != nil {
		return nil, err
	}
	tr, err := translate.Translate(req, inv.Subset(ids), translate.Options{})
	if err != nil {
		return nil, fmt.Errorf("compose scope: %w", err)
	}
	d := compose.NewDelta(changeID, tenant)
	for id, sig := range tr.Model.ItemSignatures() {
		p := scopePath(inv, id)
		if attrs := sc.Attrs[id]; len(attrs) > 0 {
			for k, v := range attrs {
				d.AddAttr(p, k, compose.Sig(k, v))
			}
			continue
		}
		d.AddNode(p, sig^paySig)
	}
	return d.Canon(), nil
}
