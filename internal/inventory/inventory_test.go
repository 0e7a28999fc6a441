package inventory

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func el(id string, kv ...string) *Element {
	e := &Element{ID: id, Attributes: map[string]string{}}
	for i := 0; i+1 < len(kv); i += 2 {
		e.Attributes[kv[i]] = kv[i+1]
	}
	return e
}

func TestAddAndGet(t *testing.T) {
	inv := New()
	if err := inv.Add(el("n1", AttrMarket, "NYC")); err != nil {
		t.Fatalf("Add: %v", err)
	}
	got, ok := inv.Get("n1")
	if !ok || got.Attributes[AttrMarket] != "NYC" {
		t.Fatalf("Get(n1) = %v, %v", got, ok)
	}
	if _, ok := inv.Get("missing"); ok {
		t.Fatal("Get(missing) should be absent")
	}
}

func TestAddRejectsDuplicatesAndEmpty(t *testing.T) {
	inv := New()
	if err := inv.Add(el("n1")); err != nil {
		t.Fatal(err)
	}
	if err := inv.Add(el("n1")); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := inv.Add(&Element{}); err == nil {
		t.Fatal("empty id accepted")
	}
	if err := inv.Add(nil); err == nil {
		t.Fatal("nil element accepted")
	}
}

func TestByAttrAndCommonID(t *testing.T) {
	inv := New()
	inv.MustAdd(el("a", AttrMarket, "NYC"))
	inv.MustAdd(el("b", AttrMarket, "NYC"))
	inv.MustAdd(el("c", AttrMarket, "LA"))
	if got := inv.ByAttr(AttrMarket, "NYC"); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("ByAttr(NYC) = %v", got)
	}
	if got := inv.ByAttr(AttrCommonID, "b"); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("ByAttr(common_id,b) = %v", got)
	}
	if got := inv.ByAttr(AttrCommonID, "zz"); got != nil {
		t.Fatalf("ByAttr(common_id,zz) = %v, want nil", got)
	}
}

func TestMultiAttrs(t *testing.T) {
	inv := New()
	e := el("a")
	e.MultiAttrs = map[string][]string{AttrCarrier: {"CF-1", "CF-3"}}
	inv.MustAdd(e)
	if got := inv.ByAttr(AttrCarrier, "CF-3"); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("ByAttr(CF-3) = %v", got)
	}
	if got := e.Values(AttrCarrier); len(got) != 2 {
		t.Fatalf("Values = %v", got)
	}
}

func TestAttrValuesSorted(t *testing.T) {
	inv := New()
	inv.MustAdd(el("a", AttrMarket, "NYC"))
	inv.MustAdd(el("b", AttrMarket, "ATL"))
	inv.MustAdd(el("c", AttrMarket, "LA"))
	want := []string{"ATL", "LA", "NYC"}
	if got := inv.AttrValues(AttrMarket); !reflect.DeepEqual(got, want) {
		t.Fatalf("AttrValues = %v, want %v", got, want)
	}
}

func TestGroupBy(t *testing.T) {
	inv := New()
	inv.MustAdd(el("a", AttrEMS, "ems1"))
	inv.MustAdd(el("b", AttrEMS, "ems1"))
	inv.MustAdd(el("c", AttrEMS, "ems2"))
	inv.MustAdd(el("d")) // missing attribute
	g := inv.GroupBy(AttrEMS)
	if len(g["ems1"]) != 2 || len(g["ems2"]) != 1 || len(g[""]) != 1 {
		t.Fatalf("GroupBy = %v", g)
	}
}

func TestFilterAndSubset(t *testing.T) {
	inv := New()
	for i := 0; i < 10; i++ {
		hw := "v1"
		if i%2 == 0 {
			hw = "v2"
		}
		inv.MustAdd(el(fmt.Sprintf("n%02d", i), AttrHWVersion, hw))
	}
	v2 := inv.Filter(func(e *Element) bool { return e.Attributes[AttrHWVersion] == "v2" })
	if len(v2) != 5 {
		t.Fatalf("Filter len = %d", len(v2))
	}
	sub := inv.Subset(v2)
	if sub.Len() != 5 {
		t.Fatalf("Subset len = %d", sub.Len())
	}
	// Clones: mutating subset must not affect the source.
	e, _ := sub.Get(v2[0])
	e.Attributes[AttrHWVersion] = "mutated"
	orig, _ := inv.Get(v2[0])
	if orig.Attributes[AttrHWVersion] != "v2" {
		t.Fatal("Subset did not clone elements")
	}
}

func TestCloneIndependence(t *testing.T) {
	e := el("a", AttrMarket, "NYC")
	e.MultiAttrs = map[string][]string{AttrCarrier: {"CF-1"}}
	c := e.Clone()
	c.Attributes[AttrMarket] = "LA"
	c.MultiAttrs[AttrCarrier][0] = "CF-9"
	if e.Attributes[AttrMarket] != "NYC" || e.MultiAttrs[AttrCarrier][0] != "CF-1" {
		t.Fatal("Clone shares storage with original")
	}
}

// Property: every id listed by ByAttr really has that attribute value, and
// GroupBy partitions exactly the element set (for single-valued attributes).
func TestGroupByPartitionProperty(t *testing.T) {
	f := func(seed uint8, n uint8) bool {
		inv := New()
		count := int(n%40) + 1
		for i := 0; i < count; i++ {
			m := fmt.Sprintf("m%d", (int(seed)+i*7)%5)
			inv.MustAdd(el(fmt.Sprintf("e%03d", i), AttrMarket, m))
		}
		g := inv.GroupBy(AttrMarket)
		total := 0
		for val, ids := range g {
			total += len(ids)
			for _, id := range ids {
				e, ok := inv.Get(id)
				if !ok || e.Attributes[AttrMarket] != val {
					return false
				}
			}
		}
		return total == inv.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIDsInsertionOrder(t *testing.T) {
	inv := New()
	inv.MustAdd(el("z"))
	inv.MustAdd(el("a"))
	inv.MustAdd(el("m"))
	if got := inv.IDs(); !reflect.DeepEqual(got, []string{"z", "a", "m"}) {
		t.Fatalf("IDs = %v", got)
	}
}
