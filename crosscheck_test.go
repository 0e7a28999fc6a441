package main

// Cross-validation between the generic model-driven solver and the
// Appendix C heuristic: on the same instance with the same constraint set
// (global concurrency + USID consistency), both must produce feasible
// schedules, and the exhaustive solver must never be worse than the greedy
// heuristic on the shared objective.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"cornet/internal/inventory"
	"cornet/internal/netgen"
	"cornet/internal/plan/heuristic"
	"cornet/internal/plan/intent"
	"cornet/internal/plan/solver"
	"cornet/internal/plan/translate"
)

func TestSolverHeuristicCrossValidation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		usids := 4 + rng.Intn(6)
		net, err := netgen.Cellular(netgen.CellularConfig{
			Seed: seed, Markets: 1, TACsPerMarket: 2, USIDsPerTAC: usids,
			GNodeBFraction: 1, EMSCount: 2,
		})
		if err != nil {
			return false
		}
		bases := net.Inv.Filter(func(e *inventory.Element) bool {
			nf, _ := e.Attr(inventory.AttrNFType)
			return nf == "eNodeB" || nf == "gNodeB"
		})
		sub := net.Inv.Subset(bases)
		n := sub.Len()
		slots := 8
		cap := n/slots + 2 + rng.Intn(3)
		if cap < 2 {
			cap = 2 // a USID pair must fit one slot
		}

		doc := fmt.Sprintf(`{
		  "scheduling_window": {"start": "2022-01-01 00:00:00", "end": "2022-01-09 00:00:00",
		    "granularity": {"metric":"day","value":1}},
		  "schedulable_attribute": "common_id",
		  "constraints": [
		    {"name": "concurrency", "base_attribute": "common_id", "default_capacity": %d},
		    {"name": "consistency", "attribute": "usid"}
		  ]
		}`, cap)
		req, err := intent.Parse([]byte(doc))
		if err != nil {
			return false
		}
		tr, err := translate.Translate(req, sub, translate.Options{})
		if err != nil {
			return false
		}
		sched, err := solver.SolveContext(context.Background(), tr.Model, solver.Options{
			MaxNodes: 300_000, TimeLimit: 5 * time.Second,
		})
		if err != nil {
			return false
		}
		if v := tr.Model.Check(sched.Slots); len(v) > 0 {
			t.Logf("seed %d: solver infeasible: %v", seed, v[0])
			return false
		}

		h, err := heuristic.SolveContext(context.Background(), heuristic.Instance{
			Inv: sub, MaxTimeslots: slots, SlotCapacity: cap,
			Restarts: 4, Seed: seed,
		})
		if err != nil {
			t.Log("heuristic:", err)
			return false
		}
		// Heuristic feasibility: per-slot load within capacity, USIDs whole.
		load := map[int]int{}
		byUSID := map[string]int{}
		for id, s := range h.Slots {
			load[s]++
			e, _ := sub.Get(id)
			usid, _ := e.Attr(inventory.AttrUSID)
			if prev, seen := byUSID[usid]; seen && prev != s {
				t.Logf("seed %d: heuristic split USID %s", seed, usid)
				return false
			}
			byUSID[usid] = s
		}
		for s, l := range load {
			if l > cap {
				t.Logf("seed %d: heuristic overload slot %d: %d > %d", seed, s, l, cap)
				return false
			}
		}

		// Shared objective: weighted total completion over scheduled work
		// plus the model's skip penalty for leftovers. The exhaustive
		// solver must not lose to the greedy pass.
		solverCost := int64(0)
		for i, s := range sched.Slots {
			if s >= 0 {
				solverCost += int64(s+1) * int64(tr.Model.Weight(i))
			} else {
				solverCost += int64(tr.Model.SkipPenalty) * int64(tr.Model.Weight(i))
			}
		}
		heurCost := h.WTCT + int64(len(h.Leftovers))*int64(tr.Model.SkipPenalty)
		if sched.Optimal && solverCost > heurCost {
			t.Logf("seed %d: optimal solver cost %d > heuristic %d", seed, solverCost, heurCost)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
