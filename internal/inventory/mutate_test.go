package inventory

import (
	"fmt"
	"sync"
	"testing"
)

func TestSetAttrUpdatesValueAndIndex(t *testing.T) {
	inv := New()
	inv.MustAdd(el("n1", AttrSWVersion, "1.0", AttrMarket, "NYC"))
	inv.MustAdd(el("n2", AttrSWVersion, "1.0", AttrMarket, "NYC"))
	if err := inv.SetAttr("n1", AttrSWVersion, "2.0"); err != nil {
		t.Fatalf("SetAttr: %v", err)
	}
	e, _ := inv.Get("n1")
	if got, _ := e.Attr(AttrSWVersion); got != "2.0" {
		t.Fatalf("sw_version = %q, want 2.0", got)
	}
	if ids := inv.ByAttr(AttrSWVersion, "2.0"); len(ids) != 1 || ids[0] != "n1" {
		t.Fatalf("ByAttr(2.0) = %v, want [n1]", ids)
	}
	if ids := inv.ByAttr(AttrSWVersion, "1.0"); len(ids) != 1 || ids[0] != "n2" {
		t.Fatalf("ByAttr(1.0) = %v, want [n2]", ids)
	}
	// Untouched attributes keep their index entries.
	if ids := inv.ByAttr(AttrMarket, "NYC"); len(ids) != 2 {
		t.Fatalf("ByAttr(market=NYC) = %v, want both elements", ids)
	}
}

func TestSetAttrAddsNewAttributeAndRejectsBadTargets(t *testing.T) {
	inv := New()
	inv.MustAdd(el("n1"))
	if err := inv.SetAttr("n1", AttrVendor, "acme"); err != nil {
		t.Fatalf("SetAttr new attr: %v", err)
	}
	if ids := inv.ByAttr(AttrVendor, "acme"); len(ids) != 1 {
		t.Fatalf("new attribute not indexed: %v", ids)
	}
	if err := inv.SetAttr("missing", AttrVendor, "x"); err == nil {
		t.Fatal("SetAttr on unknown element should fail")
	}
	if err := inv.SetAttr("n1", AttrCommonID, "n2"); err == nil {
		t.Fatal("SetAttr must refuse to change the element id")
	}
}

// TestSetAttrCopyOnWrite pins the snapshot contract the reconciliation
// controller relies on: an *Element obtained before a SetAttr never
// changes, so readers can hold it across a concurrent write.
func TestSetAttrCopyOnWrite(t *testing.T) {
	inv := New()
	inv.MustAdd(el("n1", AttrSWVersion, "1.0"))
	before, _ := inv.Get("n1")
	if err := inv.SetAttr("n1", AttrSWVersion, "2.0"); err != nil {
		t.Fatal(err)
	}
	if got, _ := before.Attr(AttrSWVersion); got != "1.0" {
		t.Fatalf("earlier snapshot mutated to %q", got)
	}
	after, _ := inv.Get("n1")
	if got, _ := after.Attr(AttrSWVersion); got != "2.0" {
		t.Fatalf("fresh Get = %q, want 2.0", got)
	}
}

// TestInventoryConcurrentReadersAndWriters hammers every read path while
// SetAttr writes race against them; run under -race it asserts the
// inventory's locking and copy-on-write discipline end to end.
func TestInventoryConcurrentReadersAndWriters(t *testing.T) {
	inv := New()
	const n = 64
	for i := 0; i < n; i++ {
		inv.MustAdd(el(fmt.Sprintf("n%03d", i), AttrSWVersion, "1.0", AttrMarket, "NYC"))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, id := range inv.IDs() {
					if e, ok := inv.Get(id); ok {
						e.Attr(AttrSWVersion) // read a possibly-stale snapshot
					}
				}
				inv.ByAttr(AttrSWVersion, "2.0")
				inv.GroupBy(AttrMarket)
				inv.AttrValues(AttrSWVersion)
				inv.Filter(func(e *Element) bool {
					v, _ := e.Attr(AttrSWVersion)
					return v == "1.0"
				})
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				id := fmt.Sprintf("n%03d", i)
				if err := inv.SetAttr(id, AttrSWVersion, fmt.Sprintf("2.%d", w)); err != nil {
					t.Errorf("SetAttr(%s): %v", id, err)
				}
			}
		}(w)
	}
	// Writers finish quickly; stop the readers afterwards.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%03d", i)
		for {
			e, _ := inv.Get(id)
			if v, _ := e.Attr(AttrSWVersion); v != "1.0" {
				break
			}
		}
	}
	close(stop)
	<-done
	// Every element converged to one of the writers' values and the index
	// agrees with the element state.
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%03d", i)
		e, _ := inv.Get(id)
		v, _ := e.Attr(AttrSWVersion)
		if v != "2.0" && v != "2.1" {
			t.Fatalf("%s ended at %q", id, v)
		}
		found := false
		for _, got := range inv.ByAttr(AttrSWVersion, v) {
			if got == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("index for %s=%q does not contain %s", AttrSWVersion, v, id)
		}
	}
}

// TestStampMovesWithEffectiveMutationsOnly pins what memoisation over an
// inventory relies on: equal stamps mean equal content, so every mutation
// that changes content moves the version, and a refused or no-op one (which
// would needlessly invalidate every memo) does not.
func TestStampMovesWithEffectiveMutationsOnly(t *testing.T) {
	inv := New()
	id, v0 := inv.Stamp()
	if otherID, _ := New().Stamp(); otherID == id {
		t.Fatalf("two inventories share id %d", id)
	}
	version := func() uint64 {
		gotID, v := inv.Stamp()
		if gotID != id {
			t.Fatalf("id moved from %d to %d", id, gotID)
		}
		return v
	}
	inv.MustAdd(el("n1", AttrSWVersion, "1.0"))
	v1 := version()
	if v1 == v0 {
		t.Fatal("Add did not move the version")
	}
	if err := inv.Add(el("n1")); err == nil {
		t.Fatal("duplicate Add accepted")
	}
	if err := inv.SetAttr("n1", AttrSWVersion, "1.0"); err != nil {
		t.Fatal(err)
	}
	if err := inv.SetAttr("ghost", AttrSWVersion, "2.0"); err == nil {
		t.Fatal("SetAttr on unknown element accepted")
	}
	if v := version(); v != v1 {
		t.Fatalf("refused and no-op mutations moved the version %d -> %d", v1, v)
	}
	if err := inv.SetAttr("n1", AttrSWVersion, "2.0"); err != nil {
		t.Fatal(err)
	}
	v2 := version()
	if v2 == v1 {
		t.Fatal("SetAttr to a new value did not move the version")
	}
	if err := inv.SetAttr("n1", AttrVendor, ""); err != nil { // absent -> present-but-empty
		t.Fatal(err)
	}
	if version() == v2 {
		t.Fatal("SetAttr adding an empty-valued attribute did not move the version")
	}
	// A subset is a new inventory: its own id, whatever the parent's state.
	if subID, _ := inv.Subset([]string{"n1"}).Stamp(); subID == id {
		t.Fatal("Subset shares its parent's id")
	}
}
