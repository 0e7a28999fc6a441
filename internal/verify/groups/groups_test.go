package groups

import (
	"reflect"
	"testing"

	"cornet/internal/inventory"
	"cornet/internal/topology"
)

// star topology: hub switch with leaves; leaves of leaves.
func fixture() (*topology.Graph, *inventory.Inventory) {
	g := topology.New()
	// enb1..enb4 connect to sw1; sw1 connects to core1; enb5 to sw2.
	for _, e := range []string{"enb1", "enb2", "enb3", "enb4"} {
		_ = g.AddEdge(e, "sw1", topology.Link)
	}
	_ = g.AddEdge("sw1", "core1", topology.Link)
	_ = g.AddEdge("enb5", "sw2", topology.Link)
	_ = g.AddEdge("sw2", "core1", topology.Link)

	inv := inventory.New()
	for i, id := range []string{"enb1", "enb2", "enb3", "enb4", "enb5"} {
		hw := "hwA"
		if i >= 3 {
			hw = "hwB"
		}
		market := "NYC"
		if id == "enb5" {
			market = "LA"
		}
		inv.MustAdd(&inventory.Element{ID: id, Attributes: map[string]string{
			inventory.AttrHWVersion: hw,
			inventory.AttrMarket:    market,
		}})
	}
	inv.MustAdd(&inventory.Element{ID: "sw1", Attributes: map[string]string{inventory.AttrMarket: "NYC"}})
	inv.MustAdd(&inventory.Element{ID: "sw2", Attributes: map[string]string{inventory.AttrMarket: "LA"}})
	return g, inv
}

func TestFirstTier(t *testing.T) {
	g, inv := fixture()
	s := &Selector{Topo: g, Inv: inv}
	ctl, err := s.Control([]string{"enb1"}, FirstTier, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ctl, []string{"sw1"}) {
		t.Fatalf("ctl = %v", ctl)
	}
}

func TestSecondTierAndMinus(t *testing.T) {
	g, inv := fixture()
	s := &Selector{Topo: g, Inv: inv}
	ctl, err := s.Control([]string{"enb1"}, SecondTier, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Distance 2 from enb1: enb2, enb3, enb4, core1.
	if !reflect.DeepEqual(ctl, []string{"core1", "enb2", "enb3", "enb4"}) {
		t.Fatalf("2nd tier = %v", ctl)
	}
	// 2nd minus 1st with two study nodes: study={enb1, sw1}; 1st tier of
	// sw1 covers enb2..4 and core1, so 2nd-minus-1st excludes them.
	ctl2, err := s.Control([]string{"enb1", "sw1"}, SecondMinusFirst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 2nd tier of {enb1,sw1} = {enb2,enb3,enb4,core1} (from enb1) +
	// {sw2} (from sw1 via core1); minus 1st tier {sw1,enb2,enb3,enb4,core1}
	// leaves sw2. Study members never appear.
	if !reflect.DeepEqual(ctl2, []string{"sw2"}) {
		t.Fatalf("2nd-minus-1st = %v", ctl2)
	}
}

func TestMatchAttrs(t *testing.T) {
	g, inv := fixture()
	s := &Selector{Topo: g, Inv: inv}
	// Study enb1 (hwA); 2nd tier = enb2,enb3 (hwA), enb4 (hwB), core1 (no hw).
	ctl, err := s.Control([]string{"enb1"}, SecondTier, Options{MatchAttrs: []string{inventory.AttrHWVersion}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ctl, []string{"enb2", "enb3"}) {
		t.Fatalf("hw-matched = %v", ctl)
	}
}

func TestSameAttribute(t *testing.T) {
	g, inv := fixture()
	s := &Selector{Topo: g, Inv: inv}
	ctl, err := s.Control([]string{"enb1"}, SameAttribute, Options{Attribute: inventory.AttrMarket})
	if err != nil {
		t.Fatal(err)
	}
	// Same market NYC minus study: enb2..4, sw1.
	if !reflect.DeepEqual(ctl, []string{"enb2", "enb3", "enb4", "sw1"}) {
		t.Fatalf("same-market = %v", ctl)
	}
}

func TestMaxSizeAndErrors(t *testing.T) {
	g, inv := fixture()
	s := &Selector{Topo: g, Inv: inv}
	ctl, err := s.Control([]string{"enb1"}, SecondTier, Options{MaxSize: 2})
	if err != nil || len(ctl) != 2 {
		t.Fatalf("maxsize: %v %v", ctl, err)
	}
	if _, err := s.Control(nil, FirstTier, Options{}); err == nil {
		t.Fatal("empty study accepted")
	}
	if _, err := s.Control([]string{"enb1"}, "bogus", Options{}); err == nil {
		t.Fatal("unknown criterion accepted")
	}
	noTopo := &Selector{Inv: inv}
	if _, err := noTopo.Control([]string{"enb1"}, FirstTier, Options{}); err == nil {
		t.Fatal("topology-less 1st-tier accepted")
	}
	// Isolated node yields empty control -> error.
	if _, err := s.Control([]string{"ghost"}, FirstTier, Options{}); err == nil {
		t.Fatal("empty control accepted")
	}
}
