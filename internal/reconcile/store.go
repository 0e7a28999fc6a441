package reconcile

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"cornet/internal/obs"
)

// Spec is a declared desired fleet state: "every <nf_type> instance (in
// <market>, when set) runs software >= <sw_version> with <config>". Specs
// are what operators POST to /api/desired; the reconciler owns driving the
// live network toward them.
type Spec struct {
	// Name identifies the fleet; it is the reconcile queue key.
	Name string `json:"name"`
	// NFType selects the target elements by their nf_type attribute.
	NFType string `json:"nf_type"`
	// Market optionally narrows the fleet to one market.
	Market string `json:"market,omitempty"`
	// SWVersion is the minimum software version every element must run;
	// drifted elements are upgraded to exactly this version. Empty skips
	// version management.
	SWVersion string `json:"sw_version,omitempty"`
	// Config declares configuration key/value pairs every element must
	// carry (mirrored in the inventory under ConfigAttrPrefix).
	Config map[string]string `json:"config,omitempty"`
}

// Validate checks the spec invariants.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("reconcile: spec needs a name")
	}
	if s.NFType == "" {
		return fmt.Errorf("reconcile: spec %q needs an nf_type selector", s.Name)
	}
	if s.SWVersion == "" && len(s.Config) == 0 {
		return fmt.Errorf("reconcile: spec %q declares no desired state (sw_version or config)", s.Name)
	}
	return nil
}

// equal reports whether two specs declare the same desired state.
func (s Spec) equal(o Spec) bool {
	if s.Name != o.Name || s.NFType != o.NFType || s.Market != o.Market ||
		s.SWVersion != o.SWVersion || len(s.Config) != len(o.Config) {
		return false
	}
	for k, v := range s.Config {
		if o.Config[k] != v {
			return false
		}
	}
	return true
}

// clone deep-copies the spec.
func (s Spec) clone() Spec {
	if s.Config != nil {
		cfg := make(map[string]string, len(s.Config))
		for k, v := range s.Config {
			cfg[k] = v
		}
		s.Config = cfg
	}
	return s
}

// Status is the reconciler-owned observed state of a fleet.
type Status struct {
	// ObservedGeneration is the spec generation the last reconcile pass
	// acted on; when it trails Fleet.Generation the status is stale.
	ObservedGeneration int64 `json:"observed_generation"`
	// Conditions report Ready (the selector resolves) and Synced (observed
	// state matches declared state).
	Conditions []Condition `json:"conditions,omitempty"`
	// Drift is the number of drifted (element, attribute) pairs the last
	// pass found.
	Drift int `json:"drift"`
	// Applied and Failed count change executions across all passes.
	Applied int `json:"applied"`
	Failed  int `json:"failed"`
	// LastReconcile stamps the last completed pass.
	LastReconcile time.Time `json:"last_reconcile,omitempty"`
}

// clone deep-copies the status.
func (s Status) clone() Status {
	s.Conditions = append([]Condition(nil), s.Conditions...)
	return s
}

// Fleet is a managed desired-state object: the declared spec, its
// monotonically increasing generation (bumped on every spec change), and
// the reconciler's observed status.
type Fleet struct {
	Spec       Spec  `json:"spec"`
	Generation int64 `json:"generation"`
	// ChangeID is the observability change identifier minted when this
	// generation was declared; every reconcile-driven event and journal
	// revision for the generation carries it.
	ChangeID string `json:"change_id,omitempty"`
	Status   Status `json:"status"`
}

// clone deep-copies the fleet.
func (f Fleet) clone() Fleet {
	f.Spec = f.Spec.clone()
	f.Status = f.Status.clone()
	return f
}

// Store holds the declared fleets. All accessors copy, so snapshots never
// race with concurrent Apply/UpdateStatus calls; change notifications fire
// outside the lock.
type Store struct {
	mu       sync.RWMutex
	fleets   map[string]Fleet
	onChange func(name string)
}

// NewStore returns an empty fleet store.
func NewStore() *Store {
	return &Store{fleets: make(map[string]Fleet)}
}

// Subscribe registers the change callback invoked (outside the store lock)
// with the fleet name after every Apply and Delete — the watch feed the
// reconcile loop queues from. Only one subscriber is supported.
func (s *Store) Subscribe(fn func(name string)) {
	s.mu.Lock()
	s.onChange = fn
	s.mu.Unlock()
}

// Apply upserts a declared spec. A new fleet starts at generation 1; a
// spec change bumps the generation; re-applying an identical spec is a
// no-op that keeps the generation (and therefore does not trigger a
// reconcile storm). The resulting fleet is returned.
func (s *Store) Apply(spec Spec) (Fleet, error) {
	if err := spec.Validate(); err != nil {
		return Fleet{}, err
	}
	s.mu.Lock()
	f, ok := s.fleets[spec.Name]
	changed := !ok || !f.Spec.equal(spec)
	if changed {
		f.Spec = spec.clone()
		f.Generation++
		// Each declared generation is one logical change: mint its
		// observability id here so every reconcile pass, event, and journal
		// revision that drives it shares one timeline.
		f.ChangeID = obs.NewChangeID()
		s.fleets[spec.Name] = f
	}
	out := f.clone()
	notify := s.onChange
	s.mu.Unlock()
	if changed && notify != nil {
		notify(spec.Name)
	}
	return out, nil
}

// Get returns a copy of the named fleet.
func (s *Store) Get(name string) (Fleet, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.fleets[name]
	if !ok {
		return Fleet{}, false
	}
	return f.clone(), true
}

// List returns copies of all fleets, sorted by name.
func (s *Store) List() []Fleet {
	s.mu.RLock()
	out := make([]Fleet, 0, len(s.fleets))
	for _, f := range s.fleets {
		out = append(out, f.clone())
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.Name < out[j].Spec.Name })
	return out
}

// Delete removes a fleet declaration and reports whether it existed. The
// reconciler observes the deletion on its next pass and forgets the key.
func (s *Store) Delete(name string) bool {
	s.mu.Lock()
	_, ok := s.fleets[name]
	delete(s.fleets, name)
	notify := s.onChange
	s.mu.Unlock()
	if ok && notify != nil {
		notify(name)
	}
	return ok
}

// UpdateStatus applies fn to the named fleet's status under the lock,
// reporting whether the fleet still exists. The reconciler is the only
// intended caller.
func (s *Store) UpdateStatus(name string, fn func(*Status)) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.fleets[name]
	if !ok {
		return false
	}
	st := f.Status.clone()
	fn(&st)
	f.Status = st
	s.fleets[name] = f
	return true
}
