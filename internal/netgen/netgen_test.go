package netgen

import (
	"reflect"
	"strings"
	"testing"

	"cornet/internal/inventory"
	"cornet/internal/topology"
)

func TestCellularStructure(t *testing.T) {
	net, err := Cellular(CellularConfig{
		Seed: 1, Markets: 2, TACsPerMarket: 3, USIDsPerTAC: 4,
		GNodeBFraction: 1.0, EMSCount: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	enbs := net.Inv.ByAttr(inventory.AttrNFType, "eNodeB")
	gnbs := net.Inv.ByAttr(inventory.AttrNFType, "gNodeB")
	switches := net.Inv.ByAttr(inventory.AttrNFType, "switch")
	if len(enbs) != 24 || len(gnbs) != 24 {
		t.Fatalf("enbs=%d gnbs=%d", len(enbs), len(gnbs))
	}
	if len(switches) != 6 {
		t.Fatalf("switches = %d", len(switches))
	}
	// Co-located eNodeB/gNodeB share USID and are linked.
	for _, gnb := range gnbs {
		e, _ := net.Inv.Get(gnb)
		usid, _ := e.Attr(inventory.AttrUSID)
		peers := net.Inv.ByAttr(inventory.AttrUSID, usid)
		if len(peers) != 2 {
			t.Fatalf("usid %s members = %v", usid, peers)
		}
	}
	// Every eNodeB connects to its TAC's SIAD.
	for _, enb := range enbs {
		e, _ := net.Inv.Get(enb)
		tac, _ := e.Attr(inventory.AttrTAC)
		nbrs := net.Topo.Neighbors(enb)
		found := false
		for _, n := range nbrs {
			if strings.HasPrefix(n, "siad-") {
				ne, _ := net.Inv.Get(n)
				ntac, _ := ne.Attr(inventory.AttrTAC)
				if ntac == tac {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("eNodeB %s not connected to its SIAD", enb)
		}
	}
	// Core elements exist and SIADs reach them.
	if len(net.Inv.ByAttr(inventory.AttrLayer, "core")) == 0 {
		t.Fatal("no core elements")
	}
	if len(net.Topo.Neighbors("siad-000-00")) < 3 {
		t.Fatalf("siad connectivity = %v", net.Topo.Neighbors("siad-000-00"))
	}
}

func TestCellularDeterministic(t *testing.T) {
	cfg := DefaultCellular(200, 7)
	a, err := Cellular(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Cellular(cfg)
	if a.Inv.Len() != b.Inv.Len() {
		t.Fatalf("nondeterministic: %d vs %d elements", a.Inv.Len(), b.Inv.Len())
	}
	ids := a.Inv.IDs()
	for i, id := range b.Inv.IDs() {
		if ids[i] != id {
			t.Fatalf("id order differs at %d", i)
		}
		if na, nb := a.Topo.Neighbors(id), b.Topo.Neighbors(id); !reflect.DeepEqual(na, nb) {
			t.Fatalf("neighbors of %s differ: %v vs %v", id, na, nb)
		}
	}
}

func TestDefaultCellularApproximatesSize(t *testing.T) {
	for _, n := range []int{100, 1000, 5000} {
		cfg := DefaultCellular(n, 3)
		net, err := Cellular(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bases := len(net.Inv.ByAttr(inventory.AttrNFType, "eNodeB")) +
			len(net.Inv.ByAttr(inventory.AttrNFType, "gNodeB"))
		if bases < n/2 || bases > n*2 {
			t.Fatalf("requested ~%d, got %d base stations", n, bases)
		}
	}
}

func TestCellularValidation(t *testing.T) {
	if _, err := Cellular(CellularConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestVPNStructure(t *testing.T) {
	net, err := VPN(VPNConfig{Seed: 2, Sites: 40, VirtualFraction: 0.5, CoreRouters: 4})
	if err != nil {
		t.Fatal(err)
	}
	ces := len(net.Inv.ByAttr(inventory.AttrNFType, "CE"))
	vces := len(net.Inv.ByAttr(inventory.AttrNFType, "vCE"))
	pes := len(net.Inv.ByAttr(inventory.AttrNFType, "PE"))
	if ces+vces != 40 || pes != 40 {
		t.Fatalf("ce=%d vce=%d pe=%d", ces, vces, pes)
	}
	if vces == 0 || ces == 0 {
		t.Fatalf("virtual fraction not applied: ce=%d vce=%d", ces, vces)
	}
	// Every vCE has a cross-layer edge to its host server.
	for _, vce := range net.Inv.ByAttr(inventory.AttrNFType, "vCE") {
		hosts := net.Topo.Neighbors(vce, topology.CrossLayer)
		if len(hosts) != 1 || !strings.HasPrefix(hosts[0], "server-") {
			t.Fatalf("vCE %s hosts = %v", vce, hosts)
		}
		e, _ := net.Inv.Get(vce)
		if h, _ := e.Attr(inventory.AttrServer); h != hosts[0] {
			t.Fatalf("host attribute mismatch for %s", vce)
		}
	}
	// Service chains registered per site.
	if len(net.Topo.Chains()) != 40 {
		t.Fatalf("chains = %d", len(net.Topo.Chains()))
	}
	if _, err := VPN(VPNConfig{}); err == nil {
		t.Fatal("zero sites accepted")
	}
}

func TestSDWANStructure(t *testing.T) {
	net, err := SDWAN(SDWANConfig{Seed: 3, CloudZones: 3, GatewaysPerZone: 4, CPEs: 24})
	if err != nil {
		t.Fatal(err)
	}
	vgws := net.Inv.ByAttr(inventory.AttrNFType, "vGW")
	if len(vgws) != 12 {
		t.Fatalf("vgws = %d", len(vgws))
	}
	if n := len(net.Inv.ByAttr(inventory.AttrNFType, "portal")); n != 3 {
		t.Fatalf("portals = %d", n)
	}
	// Every vGW: cross-layer host + a service-chain backup in another zone.
	for _, vgw := range vgws {
		if hosts := net.Topo.Neighbors(vgw, topology.CrossLayer); len(hosts) != 1 {
			t.Fatalf("vgw %s hosts = %v", vgw, hosts)
		}
		backups := net.Topo.Neighbors(vgw, topology.ServiceChain)
		hasRemote := false
		e, _ := net.Inv.Get(vgw)
		zone, _ := e.Attr(inventory.AttrMarket)
		for _, b := range backups {
			if strings.HasPrefix(b, "vgw-") {
				be, _ := net.Inv.Get(b)
				bzone, _ := be.Attr(inventory.AttrMarket)
				if bzone != zone {
					hasRemote = true
				}
			}
		}
		if !hasRemote {
			t.Fatalf("vgw %s lacks cross-zone backup: %v", vgw, backups)
		}
	}
	// CPE chains: cpe -> pop -> agg -> tor -> vgw.
	if got := net.Topo.Chains(); len(got) != 24 || got[0] != "sdwan-chain-0000" {
		t.Fatalf("chains = %v", got)
	}
	hop := "cpe-0000"
	for _, prefix := range []string{"pop-", "agg-", "tor-", "vgw-"} {
		next := ""
		for _, n := range net.Topo.Neighbors(hop, topology.ServiceChain) {
			if strings.HasPrefix(n, prefix) {
				next = n
			}
		}
		if next == "" {
			t.Fatalf("chain stops at %s: no %s* service-chain neighbor", hop, prefix)
		}
		hop = next
	}
	if _, err := SDWAN(SDWANConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}
