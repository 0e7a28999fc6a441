// Package topology models network connectivity: the physical/logical graph
// between elements, service chains, and cross-layer (VNF to hosting server)
// dependencies. The schedule planner uses it for conflict scopes, and the
// impact verifier uses it to derive control groups (1st-tier / 2nd-tier
// neighbors, Section 3.5.1 and Fig. 14).
package topology

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// EdgeKind distinguishes the dependency classes the paper plans around.
type EdgeKind int

const (
	// Link is an ordinary adjacency (e.g. eNodeB to its common switch,
	// X2 neighbor relations between eNodeBs).
	Link EdgeKind = iota
	// ServiceChain connects consecutive NFs on a service chain.
	ServiceChain
	// CrossLayer ties a virtual network function to the physical server
	// hosting it: simultaneous changes on both are a conflict (§2.2).
	// It is the strongest dependency and wins when edges are merged.
	CrossLayer
)

func (k EdgeKind) String() string {
	switch k {
	case Link:
		return "link"
	case CrossLayer:
		return "cross-layer"
	case ServiceChain:
		return "service-chain"
	default:
		return fmt.Sprintf("EdgeKind(%d)", int(k))
	}
}

// Edge is an undirected connection between two elements.
type Edge struct {
	A, B string
	Kind EdgeKind
}

// Graph is a concurrency-safe undirected multigraph over element ids.
type Graph struct {
	mu sync.RWMutex
	// id and version are the graph's stamp (see Stamp).
	id      uint64
	version uint64
	adj     map[string]map[string]EdgeKind // node -> neighbor -> kind (strongest kept)
	edges   int
	// chains holds explicitly-registered service chains (ordered node lists).
	chains map[string][]string
}

// lastID hands out the process-unique graph ids.
var lastID atomic.Uint64

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		id:     lastID.Add(1),
		adj:    make(map[string]map[string]EdgeKind),
		chains: make(map[string][]string),
	}
}

// Stamp identifies the graph's current content without reading it: a
// process-unique id assigned in New plus a version counter bumped by every
// mutation that changes a node, an edge or a chain. It is the topology's
// part of the serving layer's request key (inventory.Inventory.Stamp is
// the inventory's).
func (g *Graph) Stamp() (id, version uint64) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.id, g.version
}

// AddNode ensures a node exists even if isolated.
func (g *Graph) AddNode(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ensure(id)
}

func (g *Graph) ensure(id string) map[string]EdgeKind {
	nbrs := g.adj[id]
	if nbrs == nil {
		nbrs = make(map[string]EdgeKind)
		g.adj[id] = nbrs
		g.version++
	}
	return nbrs
}

// AddEdge inserts an undirected edge of the given kind. Re-adding an edge
// keeps the highest-priority kind (CrossLayer > ServiceChain > Link) so that
// conflict scopes never lose the stricter dependency.
func (g *Graph) AddEdge(a, b string, kind EdgeKind) error {
	if a == b {
		return fmt.Errorf("topology: self-loop on %q", a)
	}
	if a == "" || b == "" {
		return fmt.Errorf("topology: edge endpoint must be non-empty")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	na, nb := g.ensure(a), g.ensure(b)
	prev, existed := na[b]
	if !existed {
		g.edges++
		g.version++
		na[b], nb[a] = kind, kind
		return nil
	}
	if kind > prev {
		g.version++
		na[b], nb[a] = kind, kind
	}
	return nil
}

// RegisterChain records an ordered service chain and adds ServiceChain edges
// between consecutive members.
func (g *Graph) RegisterChain(name string, nodes []string) error {
	if len(nodes) < 2 {
		return fmt.Errorf("topology: chain %q needs at least 2 nodes", name)
	}
	for i := 1; i < len(nodes); i++ {
		if err := g.AddEdge(nodes[i-1], nodes[i], ServiceChain); err != nil {
			return err
		}
	}
	g.mu.Lock()
	g.version++
	g.chains[name] = append([]string(nil), nodes...)
	g.mu.Unlock()
	return nil
}

// Chain returns the ordered members of a registered service chain.
func (g *Graph) Chain(name string) ([]string, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	c, ok := g.chains[name]
	return append([]string(nil), c...), ok
}

// Chains returns the registered chain names, sorted.
func (g *Graph) Chains() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	names := make([]string, 0, len(g.chains))
	for n := range g.chains {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NumNodes reports the node count; NumEdges the undirected edge count.
func (g *Graph) NumNodes() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.adj)
}

// NumEdges reports the number of distinct undirected edges.
func (g *Graph) NumEdges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.edges
}

// Neighbors returns the sorted direct neighbors of id, optionally filtered
// by edge kind (pass nil for all kinds).
func (g *Graph) Neighbors(id string, kinds ...EdgeKind) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []string
	for nbr, k := range g.adj[id] {
		if len(kinds) == 0 || containsKind(kinds, k) {
			out = append(out, nbr)
		}
	}
	sort.Strings(out)
	return out
}

func containsKind(ks []EdgeKind, k EdgeKind) bool {
	for _, x := range ks {
		if x == k {
			return true
		}
	}
	return false
}

// KHop returns all nodes at graph distance exactly k from id (k >= 1),
// sorted. This implements the 1st-tier / 2nd-tier neighbor control-group
// definitions of Fig. 14; "2nd minus 1st" is KHop(id,2) by construction
// since KHop is exact-distance.
func (g *Graph) KHop(id string, k int) []string {
	if k < 1 {
		return nil
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	dist := map[string]int{id: 0}
	frontier := []string{id}
	for d := 1; d <= k && len(frontier) > 0; d++ {
		var next []string
		for _, u := range frontier {
			for v := range g.adj[u] {
				if _, seen := dist[v]; !seen {
					dist[v] = d
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	var out []string
	for v, d := range dist {
		if d == k {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// WithinK returns all nodes at distance 1..k from id, sorted.
func (g *Graph) WithinK(id string, k int) []string {
	seen := make(map[string]bool)
	for d := 1; d <= k; d++ {
		for _, v := range g.KHop(id, d) {
			seen[v] = true
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Components returns the connected components of the graph, each sorted,
// ordered by their smallest member. The planner uses components to split a
// scheduling problem into independent sub-problems (§3.3.3 idea (b)).
func (g *Graph) Components() [][]string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	seen := make(map[string]bool, len(g.adj))
	var comps [][]string
	// Deterministic order: iterate sorted node ids.
	nodes := make([]string, 0, len(g.adj))
	for n := range g.adj {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, start := range nodes {
		if seen[start] {
			continue
		}
		var comp []string
		stack := []string{start}
		seen[start] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		sort.Strings(comp)
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps
}

// Edges returns a deterministic snapshot of all undirected edges.
func (g *Graph) Edges() []Edge {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []Edge
	for a, nbrs := range g.adj {
		for b, k := range nbrs {
			if a < b {
				out = append(out, Edge{A: a, B: b, Kind: k})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Union merges several daily topology snapshots into one graph. The paper
// (§5.3) repairs missing or inconsistent eNodeB-switch relationships by
// taking the union of the last five days of topology data: an edge present
// on any day is kept, making downstream schedules more conservative.
func Union(days ...*Graph) *Graph {
	merged := New()
	for _, day := range days {
		if day == nil {
			continue
		}
		for _, e := range day.Edges() {
			_ = merged.AddEdge(e.A, e.B, e.Kind)
		}
		day.mu.RLock()
		for id := range day.adj {
			merged.AddNode(id)
		}
		for name, chain := range day.chains {
			if _, dup := merged.chains[name]; !dup {
				merged.chains[name] = append([]string(nil), chain...)
			}
		}
		day.mu.RUnlock()
	}
	return merged
}
