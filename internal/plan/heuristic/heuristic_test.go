package heuristic

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"

	"cornet/internal/inventory"
)

// ranInv builds a RAN-like inventory: markets -> TACs -> USIDs -> nodes,
// spread over timezones and EMSes. Each USID holds an eNodeB and a gNodeB.
func ranInv(markets, tacsPerMarket, usidsPerTAC int) *inventory.Inventory {
	inv := inventory.New()
	id := 0
	for m := 0; m < markets; m++ {
		for t := 0; t < tacsPerMarket; t++ {
			for u := 0; u < usidsPerTAC; u++ {
				usid := fmt.Sprintf("u-%d-%d-%d", m, t, u)
				for _, tech := range []string{"enb", "gnb"} {
					inv.MustAdd(&inventory.Element{
						ID: fmt.Sprintf("%s-%06d", tech, id),
						Attributes: map[string]string{
							inventory.AttrMarket:   fmt.Sprintf("m%d", m),
							inventory.AttrTAC:      fmt.Sprintf("tac-%d-%d", m, t),
							inventory.AttrUSID:     usid,
							inventory.AttrTimezone: fmt.Sprintf("%d", -5-m%3),
							inventory.AttrEMS:      fmt.Sprintf("ems%d", id%4),
						},
					})
					id++
				}
			}
		}
	}
	return inv
}

func TestSolveBasicFeasibility(t *testing.T) {
	inv := ranInv(3, 4, 5) // 120 nodes
	res := solve(t, Instance{
		Inv: inv, MaxTimeslots: 30, SlotCapacity: 10, Seed: 1,
	})
	if len(res.Leftovers) != 0 {
		t.Fatalf("leftovers = %d", len(res.Leftovers))
	}
	if len(res.Slots) != inv.Len() {
		t.Fatalf("scheduled %d of %d", len(res.Slots), inv.Len())
	}
	// Slot capacity respected.
	perSlot := map[int]int{}
	for _, s := range res.Slots {
		perSlot[s]++
	}
	for s, n := range perSlot {
		if n > 10 {
			t.Fatalf("slot %d holds %d > 10", s, n)
		}
	}
}

func TestSolveUSIDConsistency(t *testing.T) {
	inv := ranInv(2, 3, 4)
	res := solve(t, Instance{Inv: inv, MaxTimeslots: 40, SlotCapacity: 8, Seed: 2})
	// Co-USID eNodeB/gNodeB pairs share slots (software compatibility).
	byUSID := map[string][]int{}
	for id, s := range res.Slots {
		e, _ := inv.Get(id)
		usid, _ := e.Attr(inventory.AttrUSID)
		byUSID[usid] = append(byUSID[usid], s)
	}
	for usid, slots := range byUSID {
		for _, s := range slots {
			if s != slots[0] {
				t.Fatalf("USID %s split across slots %v", usid, slots)
			}
		}
	}
}

func TestSolveEMSCapacity(t *testing.T) {
	inv := ranInv(1, 2, 6) // 24 nodes over 4 EMSes
	res := solve(t, Instance{
		Inv: inv, MaxTimeslots: 40, SlotCapacity: 24, EMSCapacity: 2, Seed: 3,
	})
	use := map[string]map[int]int{}
	for id, s := range res.Slots {
		e, _ := inv.Get(id)
		ems, _ := e.Attr(inventory.AttrEMS)
		if use[ems] == nil {
			use[ems] = map[int]int{}
		}
		use[ems][s]++
		if use[ems][s] > 2 {
			t.Fatalf("EMS %s slot %d exceeds capacity", ems, s)
		}
	}
}

func TestSolveTimezoneSeparation(t *testing.T) {
	inv := ranInv(3, 2, 3) // markets m0/m1/m2 in tz -5/-6/-7
	res := solve(t, Instance{Inv: inv, MaxTimeslots: 60, SlotCapacity: 4, Seed: 4})
	// Eastern-most timezone (-5) must start no later than others, and
	// timezone slot ranges must be (near-)sequential: max slot of tz -5
	// <= min slot of tz -7 (they are two apart, no border sharing).
	rangeOf := func(tz string) (lo, hi int) {
		lo, hi = 1<<30, -1
		for id, s := range res.Slots {
			e, _ := inv.Get(id)
			if v, _ := e.Attr(inventory.AttrTimezone); v == tz {
				if s < lo {
					lo = s
				}
				if s > hi {
					hi = s
				}
			}
		}
		return
	}
	_, hi5 := rangeOf("-5")
	lo7, _ := rangeOf("-7")
	if hi5 > lo7 {
		t.Fatalf("timezone ordering violated: tz-5 ends %d after tz-7 starts %d", hi5, lo7)
	}
}

func TestSolveLocalizeMarkets(t *testing.T) {
	// Within a timezone, markets must not interleave.
	inv := inventory.New()
	for m := 0; m < 3; m++ {
		for i := 0; i < 6; i++ {
			inv.MustAdd(&inventory.Element{
				ID: fmt.Sprintf("n-%d-%d", m, i),
				Attributes: map[string]string{
					inventory.AttrMarket:   fmt.Sprintf("m%d", m),
					inventory.AttrTAC:      fmt.Sprintf("tac%d", m*10+i/3),
					inventory.AttrUSID:     fmt.Sprintf("u-%d-%d", m, i),
					inventory.AttrTimezone: "-5",
				},
			})
		}
	}
	res := solve(t, Instance{Inv: inv, MaxTimeslots: 20, SlotCapacity: 2, Seed: 5})
	if len(res.Leftovers) != 0 {
		t.Fatalf("leftovers: %v", res.Leftovers)
	}
	ranges := map[string][2]int{}
	for id, s := range res.Slots {
		e, _ := inv.Get(id)
		m, _ := e.Attr(inventory.AttrMarket)
		r, ok := ranges[m]
		if !ok {
			ranges[m] = [2]int{s, s}
			continue
		}
		if s < r[0] {
			r[0] = s
		}
		if s > r[1] {
			r[1] = s
		}
		ranges[m] = r
	}
	ms := []string{"m0", "m1", "m2"}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			a, b := ranges[ms[i]], ranges[ms[j]]
			if a[0] < b[1] && b[0] < a[1] {
				t.Fatalf("markets interleave: %v vs %v", a, b)
			}
		}
	}
}

func TestSolveConflictAvoidance(t *testing.T) {
	inv := ranInv(1, 1, 4) // 8 nodes, single market/TAC
	ids := inv.IDs()
	// Every node conflicts on slot 0.
	conflicts := map[string][]int{}
	for _, id := range ids {
		conflicts[id] = []int{0}
	}
	res := solve(t, Instance{
		Inv: inv, MaxTimeslots: 10, SlotCapacity: 8,
		Conflicts: conflicts, Restarts: 4, Seed: 6,
	})
	if res.Conflicts != 0 {
		t.Fatalf("conflicts = %d (slots %v)", res.Conflicts, res.Slots)
	}
}

func TestSolveLeftoversWhenWindowTooSmall(t *testing.T) {
	inv := ranInv(1, 2, 5) // 20 nodes
	res := solve(t, Instance{Inv: inv, MaxTimeslots: 2, SlotCapacity: 4, Seed: 7})
	if len(res.Slots)+len(res.Leftovers) != inv.Len() {
		t.Fatalf("partition broken: %d + %d != %d", len(res.Slots), len(res.Leftovers), inv.Len())
	}
	if len(res.Slots) != 8 {
		t.Fatalf("scheduled = %d, want 8 (2 slots x cap 4)", len(res.Slots))
	}
}

func TestSolveDeterministicWithSeed(t *testing.T) {
	inv := ranInv(2, 3, 4)
	inst := Instance{Inv: inv, MaxTimeslots: 30, SlotCapacity: 6, Seed: 42, Restarts: 4}
	a := solve(t, inst)
	b := solve(t, inst)
	if a.WTCT != b.WTCT || a.Makespan != b.Makespan || len(a.Slots) != len(b.Slots) {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
	for id, s := range a.Slots {
		if b.Slots[id] != s {
			t.Fatalf("slot differs for %s", id)
		}
	}
}

func TestSolveRestartsImprove(t *testing.T) {
	// With conflicts placed adversarially against the sorted-market order,
	// restarts should find schedules no worse than the single pass.
	inv := ranInv(4, 2, 3)
	conflicts := map[string][]int{}
	i := 0
	for _, id := range inv.IDs() {
		if i%3 == 0 {
			conflicts[id] = []int{i % 8}
		}
		i++
	}
	inst := Instance{Inv: inv, MaxTimeslots: 30, SlotCapacity: 6, Conflicts: conflicts, Seed: 9}
	inst.Restarts = 1
	one := solve(t, inst)
	inst.Restarts = 12
	many := solve(t, inst)
	if many.Conflicts > one.Conflicts {
		t.Fatalf("restarts made it worse: %d > %d", many.Conflicts, one.Conflicts)
	}
	if many.Conflicts == one.Conflicts && many.WTCT > one.WTCT {
		t.Fatalf("restarts worsened WTCT: %d > %d", many.WTCT, one.WTCT)
	}
}

// Property: schedules always respect slot capacity and partition the node
// set into scheduled + leftovers.
func TestSolveInvariantsProperty(t *testing.T) {
	f := func(seed int64, mRaw, capRaw uint8) bool {
		markets := int(mRaw%3) + 1
		slotCap := int(capRaw%8) + 2
		inv := ranInv(markets, 2, 3)
		res := solve(t, Instance{
			Inv: inv, MaxTimeslots: 15, SlotCapacity: slotCap, Seed: seed, Restarts: 3,
		})
		if len(res.Slots)+len(res.Leftovers) != inv.Len() {
			return false
		}
		perSlot := map[int]int{}
		for _, s := range res.Slots {
			if s < 0 || s >= 15 {
				return false
			}
			perSlot[s]++
		}
		for _, n := range perSlot {
			if n > slotCap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveScales10K(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	inv := ranInv(10, 25, 20) // 10,000 nodes
	res := solve(t, Instance{
		Inv: inv, MaxTimeslots: 60, SlotCapacity: 400, EMSCapacity: 200,
		Seed: 11, Restarts: 2,
	})
	if got := len(res.Slots) + len(res.Leftovers); got != 10000 {
		t.Fatalf("partition = %d", got)
	}
	if len(res.Leftovers) > 0 {
		t.Fatalf("leftovers at ample capacity: %d", len(res.Leftovers))
	}
}

// solve runs SolveContext to completion: over a background context the
// search cannot be cancelled, so any error fails the test.
func solve(t testing.TB, inst Instance) Result {
	t.Helper()
	res, err := SolveContext(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
