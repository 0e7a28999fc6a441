package reconcile

import "time"

// ConditionStatus is the three-valued state of a condition.
type ConditionStatus string

// The condition statuses, following the Kubernetes convention.
const (
	ConditionTrue    ConditionStatus = "True"
	ConditionFalse   ConditionStatus = "False"
	ConditionUnknown ConditionStatus = "Unknown"
)

// ConditionType names an aspect of a managed object's status.
type ConditionType string

// The condition types CORNET's managed objects report: Ready (the object
// resolves to real targets) and Synced (observed state matches declared
// state).
const (
	ConditionReady  ConditionType = "Ready"
	ConditionSynced ConditionType = "Synced"
)

// Condition is one observed aspect of a managed object's status, with the
// machine-readable Reason and human-readable Message of its last
// transition. LastTransition only moves when Status changes, so operators
// can see how long an object has been out of sync.
type Condition struct {
	Type           ConditionType   `json:"type"`
	Status         ConditionStatus `json:"status"`
	Reason         string          `json:"reason,omitempty"`
	Message        string          `json:"message,omitempty"`
	LastTransition time.Time       `json:"last_transition"`
}

// SetCondition upserts c into conds, stamping LastTransition with now only
// when the status actually flips (reason/message refresh in place), and
// returns the updated slice.
func SetCondition(conds []Condition, c Condition, now time.Time) []Condition {
	c.LastTransition = now
	for i := range conds {
		if conds[i].Type != c.Type {
			continue
		}
		if conds[i].Status == c.Status {
			c.LastTransition = conds[i].LastTransition
		}
		conds[i] = c
		return conds
	}
	return append(conds, c)
}

// GetCondition returns the condition of the given type, if present.
func GetCondition(conds []Condition, t ConditionType) (Condition, bool) {
	for _, c := range conds {
		if c.Type == t {
			return c, true
		}
	}
	return Condition{}, false
}

// ConditionIs reports whether the condition of the given type exists and
// has the given status — the usual "is it Synced=True yet" poll.
func ConditionIs(conds []Condition, t ConditionType, s ConditionStatus) bool {
	c, ok := GetCondition(conds, t)
	return ok && c.Status == s
}
