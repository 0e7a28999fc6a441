package reconcile

import (
	"sync"
	"time"

	"cornet/internal/changelog"
)

// Outcome classifies how a journaled change attempt ended.
type Outcome string

// The revision outcomes: Applied changes mutated the live inventory, and
// Failed ones were attempted but did not take effect (the reconciler will
// retry them).
const (
	OutcomeApplied Outcome = "applied"
	OutcomeFailed  Outcome = "failed"
)

// Revision is one audit-trail entry for a change the reconciler drove (or
// attempted to drive) against one element. Unlike changelog's synthetic
// Records — which model the operator's historical ticket feed — revisions
// are produced by the running system itself, giving operations the
// post-hoc view of what CORNET changed, when, and under which declared
// fleet generation.
type Revision struct {
	// Seq is the journal-assigned monotonically increasing sequence number.
	Seq int `json:"seq"`
	// Time stamps when the revision was recorded.
	Time time.Time `json:"time"`
	// Fleet names the desired-state object that drove the change.
	Fleet string `json:"fleet"`
	// Generation is the fleet spec generation the reconciler was acting on.
	Generation int64 `json:"generation"`
	// Element is the inventory element the change targeted.
	Element string `json:"element"`
	// Type is the change class (software-upgrade, config-change, ...).
	Type changelog.ChangeType `json:"type"`
	// Attr, From, To describe the attribute transition the change applied
	// or would have applied.
	Attr string `json:"attr"`
	From string `json:"from"`
	To   string `json:"to"`
	// ChangeID is the observability change identifier the revision was
	// recorded under, linking the audit trail to the event journal's
	// per-change timeline (GET /api/changes/{id}/timeline).
	ChangeID string `json:"change_id,omitempty"`
	// Outcome reports whether the change took effect.
	Outcome Outcome `json:"outcome"`
	// Detail carries the failure reason or auxiliary execution context.
	Detail string `json:"detail,omitempty"`
}

// journalCapacity is how many revisions a Journal retains: the newest
// ones, the same window as the event journal's default capacity. A fleet
// failing under a persistent fault appends one revision per drifted
// element on every backoff pass, so an unbounded journal would grow for
// the life of the daemon.
const journalCapacity = 4096

// Journal is a concurrency-safe log of the newest 4096 revisions. Seq
// keeps counting past the bound, so the first retained revision's Seq says
// where the window starts. The zero value is ready to use.
type Journal struct {
	mu   sync.Mutex
	seq  int
	revs []Revision
}

// Append records a revision, assigning its sequence number and timestamp
// (rev.Time is preserved when already set, for tests with fake clocks),
// and drops the oldest revision once the journal is full. It returns the
// stored revision.
func (j *Journal) Append(rev Revision) Revision {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	rev.Seq = j.seq
	if rev.Time.IsZero() {
		rev.Time = time.Now()
	}
	if len(j.revs) == journalCapacity {
		j.revs = j.revs[1:]
	}
	j.revs = append(j.revs, rev)
	return rev
}

// List returns a copy of the retained revisions in append order; it is
// empty, not nil, when there are none.
func (j *Journal) List() []Revision {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Revision{}, j.revs...)
}

// ByFleet returns the retained revisions recorded for one fleet, in append
// order; it is empty, not nil, when there are none.
func (j *Journal) ByFleet(fleet string) []Revision {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := []Revision{}
	for _, r := range j.revs {
		if r.Fleet == fleet {
			out = append(out, r)
		}
	}
	return out
}
