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
	if got := g.Neighbors("vnf1", CrossLayer); !reflect.DeepEqual(got, []string{"srv1"}) {
		t.Fatalf("cross-layer neighbors = %v", got)
	}
	if got := g.Neighbors("vnf1", Link); len(got) != 0 {
		t.Fatalf("link neighbors = %v, want none", got)
	}
	// Downgrade attempt keeps CrossLayer.
	_ = g.AddEdge("vnf1", "srv1", Link)
	if got := g.Neighbors("srv1", CrossLayer); !reflect.DeepEqual(got, []string{"vnf1"}) {
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

// Property: for random graphs, KHop sets at different distances are
// disjoint.
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
		return true
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
