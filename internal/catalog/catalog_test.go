package catalog

import (
	"testing"
)

func valid() *BuildingBlock {
	return &BuildingBlock{
		Name:        "health-check",
		Phase:       PhaseDesign,
		Function:    "Verify live and operational status",
		NFType:      "eNodeB",
		Impl:        ImplAnsible,
		APILocation: "/api/bb/health-check/eNodeB",
		Version:     1,
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*BuildingBlock)
		ok     bool
	}{
		{"valid", func(b *BuildingBlock) {}, true},
		{"empty name", func(b *BuildingBlock) { b.Name = "" }, false},
		{"name with space", func(b *BuildingBlock) { b.Name = "health check" }, false},
		{"name with at", func(b *BuildingBlock) { b.Name = "a@b" }, false},
		{"agnostic with nftype", func(b *BuildingBlock) { b.NFAgnostic = true }, false},
		{"specific without nftype", func(b *BuildingBlock) { b.NFType = "" }, false},
		{"bad phase", func(b *BuildingBlock) { b.Phase = "whatever" }, false},
		{"dup input", func(b *BuildingBlock) {
			b.Inputs = []Param{{Name: "x"}, {Name: "x"}}
		}, false},
		{"unnamed param", func(b *BuildingBlock) {
			b.Outputs = []Param{{}}
		}, false},
	}
	for _, tc := range cases {
		b := valid()
		tc.mutate(b)
		err := b.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() err=%v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestRegisterVersioning(t *testing.T) {
	c := New()
	b := valid()
	if err := c.Register(b); err != nil {
		t.Fatal(err)
	}
	// Same version rejected.
	if err := c.Register(valid()); err == nil {
		t.Fatal("same-version re-registration accepted")
	}
	// Lower version rejected.
	low := valid()
	low.Version = 0
	if err := c.Register(low); err == nil {
		t.Fatal("lower-version registration accepted")
	}
	// Higher version replaces.
	hi := valid()
	hi.Version = 2
	hi.Function = "updated"
	if err := c.Register(hi); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Lookup("health-check", "eNodeB")
	if got.Function != "updated" || got.Version != 2 {
		t.Fatalf("got %+v", got)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestLookupPrefersNFSpecific(t *testing.T) {
	c := New()
	c.MustRegister(&BuildingBlock{
		Name: "pre-post-comparison", Phase: PhaseDesign, NFAgnostic: true,
		Impl: ImplNative, Version: 1,
	})
	c.MustRegister(&BuildingBlock{
		Name: "health-check", Phase: PhaseDesign, NFType: "vCE",
		Impl: ImplScript, Version: 1,
	})
	c.MustRegister(&BuildingBlock{
		Name: "health-check", Phase: PhaseDesign, NFType: "vGW",
		Impl: ImplAnsible, Version: 1,
	})

	// NF-specific resolution.
	b, err := c.Lookup("health-check", "vCE")
	if err != nil || b.Impl != ImplScript {
		t.Fatalf("Lookup(health-check,vCE) = %v, %v", b, err)
	}
	// NF-agnostic fallback works for any NF type.
	b, err = c.Lookup("pre-post-comparison", "vCE")
	if err != nil || !b.NFAgnostic {
		t.Fatalf("Lookup(pre-post,vCE) = %v, %v", b, err)
	}
	// Missing NF-specific with no agnostic fallback fails.
	if _, err := c.Lookup("health-check", "unknownNF"); err == nil {
		t.Fatal("Lookup for unimplemented NF should fail")
	}
	if _, err := c.Lookup("nonexistent", ""); err == nil {
		t.Fatal("Lookup of unknown block should fail")
	}
}

func TestSeedTableTwo(t *testing.T) {
	c := New()
	Seed(c, map[string]ImplKind{"eNodeB": ImplVendorCLI, "gNodeB": ""})

	// Table 2 has 17 distinct capabilities after merging the duplicated
	// extract-topology / extract-inventory rows; 9 are NF-agnostic.
	agnostic, specific := 0, 0
	for _, b := range c.List() {
		if b.NFAgnostic {
			agnostic++
		} else {
			specific++
		}
	}
	if agnostic != 9 {
		t.Fatalf("agnostic = %d, want 9", agnostic)
	}
	// 8 NF-specific capabilities x 2 NF types.
	if specific != 16 {
		t.Fatalf("specific = %d, want 16", specific)
	}

	// Defaulted impl kind.
	b, err := c.Lookup(BBSoftwareUpg, "gNodeB")
	if err != nil || b.Impl != ImplAnsible {
		t.Fatalf("gNodeB software-upgrade = %+v, %v", b, err)
	}
	b, _ = c.Lookup(BBSoftwareUpg, "eNodeB")
	if b.Impl != ImplVendorCLI {
		t.Fatalf("eNodeB software-upgrade impl = %v", b.Impl)
	}

	// Software upgrade requires a version input.
	found := false
	for _, p := range b.Inputs {
		if p.Name == "sw_version" && p.Required {
			found = true
		}
	}
	if !found {
		t.Fatal("software-upgrade missing required sw_version input")
	}
}

func TestListOrderingAndByPhase(t *testing.T) {
	c := New()
	SeedAgnosticOnly(c)
	list := c.List()
	for i := 1; i < len(list); i++ {
		a, b := list[i-1], list[i]
		if a.Phase > b.Phase || (a.Phase == b.Phase && a.Key() >= b.Key()) {
			t.Fatalf("List not ordered at %d: %s/%s then %s/%s", i, a.Phase, a.Key(), b.Phase, b.Key())
		}
	}
	planning := 0
	for _, b := range list {
		if b.Phase == PhasePlanning {
			planning++
		}
	}
	if planning == 0 {
		t.Fatal("no planning blocks seeded")
	}
}

func TestTableTwoRows(t *testing.T) {
	rows := TableTwoRows()
	if len(rows) != 17 {
		t.Fatalf("TableTwoRows len = %d, want 17", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.Name+string(r.Phase)] {
			t.Fatalf("duplicate row %s/%s", r.Name, r.Phase)
		}
		seen[r.Name+string(r.Phase)] = true
	}
}
