package topology

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAddEdgeBasics(t *testing.T) {
	g := New()
	if err := g.AddEdge("a", "b", Link); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("a", "a", Link); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge("", "b", Link); err == nil {
		t.Fatal("empty endpoint accepted")
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	if got := g.Neighbors("a"); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("Neighbors(a) = %v", got)
	}
	if got := g.Neighbors("b"); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("Neighbors(b) = %v", got)
	}
}

func TestEdgeKindUpgrade(t *testing.T) {
	g := New()
	_ = g.AddEdge("vnf1", "srv1", Link)
	_ = g.AddEdge("vnf1", "srv1", CrossLayer)
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	es := g.Edges()
	if len(es) != 1 || es[0].Kind != CrossLayer {
		t.Fatalf("Edges = %v", es)
	}
	// Downgrade attempt keeps CrossLayer.
	_ = g.AddEdge("vnf1", "srv1", Link)
	if g.Edges()[0].Kind != CrossLayer {
		t.Fatal("edge kind downgraded")
	}
}

func TestNeighborsFilteredByKind(t *testing.T) {
	g := New()
	_ = g.AddEdge("v", "host", CrossLayer)
	_ = g.AddEdge("v", "peer", Link)
	if got := g.Neighbors("v", CrossLayer); !reflect.DeepEqual(got, []string{"host"}) {
		t.Fatalf("cross-layer neighbors = %v", got)
	}
	if got := g.Neighbors("v"); len(got) != 2 {
		t.Fatalf("all neighbors = %v", got)
	}
}

func TestRegisterChain(t *testing.T) {
	g := New()
	if err := g.RegisterChain("svc1", []string{"cpe", "vgw", "vvig"}); err != nil {
		t.Fatal(err)
	}
	if err := g.RegisterChain("bad", []string{"one"}); err == nil {
		t.Fatal("short chain accepted")
	}
	c, ok := g.Chain("svc1")
	if !ok || !reflect.DeepEqual(c, []string{"cpe", "vgw", "vvig"}) {
		t.Fatalf("Chain = %v, %v", c, ok)
	}
	if got := g.Neighbors("vgw", ServiceChain); len(got) != 2 {
		t.Fatalf("chain neighbors of vgw = %v", got)
	}
	if got := g.Chains(); !reflect.DeepEqual(got, []string{"svc1"}) {
		t.Fatalf("Chains = %v", got)
	}
}

// Path graph a-b-c-d-e: exact-distance queries.
func TestKHopExactDistance(t *testing.T) {
	g := New()
	nodes := []string{"a", "b", "c", "d", "e"}
	for i := 1; i < len(nodes); i++ {
		_ = g.AddEdge(nodes[i-1], nodes[i], Link)
	}
	if got := g.KHop("a", 1); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("KHop(a,1) = %v", got)
	}
	if got := g.KHop("a", 2); !reflect.DeepEqual(got, []string{"c"}) {
		t.Fatalf("KHop(a,2) = %v", got)
	}
	if got := g.KHop("c", 2); !reflect.DeepEqual(got, []string{"a", "e"}) {
		t.Fatalf("KHop(c,2) = %v", got)
	}
	if got := g.KHop("a", 0); got != nil {
		t.Fatalf("KHop(a,0) = %v", got)
	}
	if got := g.WithinK("a", 2); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("WithinK(a,2) = %v", got)
	}
}

func TestKHopShortestDistanceNotPathCount(t *testing.T) {
	// Triangle plus pendant: b is both 1 hop and (via c) 2 hops from a;
	// exact-distance must report it only at distance 1.
	g := New()
	_ = g.AddEdge("a", "b", Link)
	_ = g.AddEdge("b", "c", Link)
	_ = g.AddEdge("c", "a", Link)
	_ = g.AddEdge("c", "d", Link)
	if got := g.KHop("a", 2); !reflect.DeepEqual(got, []string{"d"}) {
		t.Fatalf("KHop(a,2) = %v, want [d]", got)
	}
}

func TestComponents(t *testing.T) {
	g := New()
	_ = g.AddEdge("a", "b", Link)
	_ = g.AddEdge("c", "d", Link)
	_ = g.AddEdge("d", "e", Link)
	g.AddNode("lonely")
	comps := g.Components()
	want := [][]string{{"a", "b"}, {"c", "d", "e"}, {"lonely"}}
	if !reflect.DeepEqual(comps, want) {
		t.Fatalf("Components = %v", comps)
	}
}

func TestUnionRepairsMissingEdges(t *testing.T) {
	// Five daily snapshots; the eNodeB-switch edge flickers in and out.
	var days []*Graph
	for d := 0; d < 5; d++ {
		g := New()
		if d%2 == 0 { // edge only present on some days
			_ = g.AddEdge("enb1", "switch1", Link)
		}
		_ = g.AddEdge("enb2", "switch1", Link)
		days = append(days, g)
	}
	merged := Union(days...)
	if got := merged.Neighbors("switch1"); !reflect.DeepEqual(got, []string{"enb1", "enb2"}) {
		t.Fatalf("union neighbors = %v", got)
	}
}

func TestUnionKeepsStrongestKindAndChains(t *testing.T) {
	d1, d2 := New(), New()
	_ = d1.AddEdge("v", "s", Link)
	_ = d2.AddEdge("v", "s", CrossLayer)
	_ = d2.RegisterChain("c1", []string{"v", "s"})
	m := Union(d1, d2, nil)
	if m.Edges()[0].Kind != CrossLayer {
		t.Fatalf("union kind = %v", m.Edges()[0].Kind)
	}
	if _, ok := m.Chain("c1"); !ok {
		t.Fatal("union lost chain")
	}
}

// Property: for random graphs, KHop sets at different distances are
// disjoint, and their union over 1..k equals WithinK.
func TestKHopDisjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		n := 20
		for i := 0; i < n*2; i++ {
			a := fmt.Sprintf("n%d", rng.Intn(n))
			b := fmt.Sprintf("n%d", rng.Intn(n))
			if a != b {
				_ = g.AddEdge(a, b, Link)
			}
		}
		h1 := g.KHop("n0", 1)
		h2 := g.KHop("n0", 2)
		h3 := g.KHop("n0", 3)
		seen := map[string]int{}
		for _, v := range h1 {
			seen[v]++
		}
		for _, v := range h2 {
			seen[v]++
		}
		for _, v := range h3 {
			seen[v]++
		}
		for _, c := range seen {
			if c > 1 {
				return false
			}
		}
		within := g.WithinK("n0", 3)
		return len(within) == len(h1)+len(h2)+len(h3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: components partition the node set.
func TestComponentsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		n := 30
		for i := 0; i < n; i++ {
			g.AddNode(fmt.Sprintf("n%d", i))
		}
		for i := 0; i < n; i++ {
			a := fmt.Sprintf("n%d", rng.Intn(n))
			b := fmt.Sprintf("n%d", rng.Intn(n))
			if a != b {
				_ = g.AddEdge(a, b, Link)
			}
		}
		total := 0
		seen := map[string]bool{}
		for _, comp := range g.Components() {
			total += len(comp)
			for _, v := range comp {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		return total == g.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStampMovesWithEffectiveMutationsOnly(t *testing.T) {
	g := New()
	id, v := g.Stamp()
	if otherID, _ := New().Stamp(); otherID == id {
		t.Fatalf("two graphs share id %d", id)
	}
	moved := func(what string, want bool) {
		t.Helper()
		gotID, next := g.Stamp()
		if gotID != id {
			t.Fatalf("id moved from %d to %d", id, gotID)
		}
		if (next != v) != want {
			t.Fatalf("%s: version moved = %t, want %t", what, next != v, want)
		}
		v = next
	}
	g.AddNode("a")
	moved("new node", true)
	g.AddNode("a")
	moved("existing node", false)
	if err := g.AddEdge("a", "b", Link); err != nil {
		t.Fatal(err)
	}
	moved("new edge", true)
	if err := g.AddEdge("b", "a", Link); err != nil {
		t.Fatal(err)
	}
	moved("same edge again", false)
	if err := g.AddEdge("a", "b", CrossLayer); err != nil {
		t.Fatal(err)
	}
	moved("stronger kind", true)
	if err := g.AddEdge("a", "b", ServiceChain); err != nil {
		t.Fatal(err)
	}
	moved("weaker kind", false)
	if err := g.AddEdge("a", "a", Link); err == nil {
		t.Fatal("self-loop accepted")
	}
	moved("refused edge", false)
	if err := g.RegisterChain("c", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	moved("chain over existing edges", true)
}
