package reconcile

import (
	"testing"
	"time"
)

func TestConditions(t *testing.T) {
	t0 := time.Unix(100, 0)
	t1 := time.Unix(200, 0)
	t2 := time.Unix(300, 0)
	var conds []Condition
	conds = SetCondition(conds, Condition{Type: ConditionSynced, Status: ConditionFalse, Reason: "DriftDetected"}, t0)
	// Same status, refreshed message: transition time must not move.
	conds = SetCondition(conds, Condition{Type: ConditionSynced, Status: ConditionFalse, Reason: "ExecutionFailed"}, t1)
	c, ok := GetCondition(conds, ConditionSynced)
	if !ok || !c.LastTransition.Equal(t0) || c.Reason != "ExecutionFailed" {
		t.Fatalf("same-status update: got %+v, want reason refresh with t0 transition", c)
	}
	// Status flip moves the transition time.
	conds = SetCondition(conds, Condition{Type: ConditionSynced, Status: ConditionTrue, Reason: "InSync"}, t2)
	c, _ = GetCondition(conds, ConditionSynced)
	if !c.LastTransition.Equal(t2) {
		t.Fatalf("status flip kept old transition time %v", c.LastTransition)
	}
	if !ConditionIs(conds, ConditionSynced, ConditionTrue) {
		t.Fatal("ConditionIs(Synced, True) = false")
	}
	// A second type coexists.
	conds = SetCondition(conds, Condition{Type: ConditionReady, Status: ConditionTrue}, t2)
	if len(conds) != 2 {
		t.Fatalf("len(conds) = %d, want 2", len(conds))
	}
}
