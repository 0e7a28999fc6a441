// Package intent defines CORNET's high-level change schedule planning
// intent: the JSON document of Listing 1 (Appendix B) that operations teams
// submit. It captures the scheduling and maintenance windows, excluded
// periods, the elementary schedulable attribute (ESA) and conflict
// attribute (CA), frozen elements, the conflict table, and the dynamic set
// of constraint-template instances (Section 3.3.1):
//
//   - conflict_handling (zero tolerance vs minimize-conflicts)
//   - concurrency (base attribute, optional aggregate attribute, capacity)
//   - consistency (schedule dependent changes together)
//   - uniformity (same / nearby attribute values within a timeslot)
//   - localize (finish a group before starting the next)
//
// Parsing validates the document and resolves the scheduling window into
// discrete timeslots.
package intent

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// TimeLayout is the timestamp format used throughout intent documents,
// matching the paper's examples ("2020-07-01 00:00:00").
const TimeLayout = "2006-01-02 15:04:05"

// Granularity expresses a duration in operator terms.
type Granularity struct {
	Metric string `json:"metric"` // "hour", "day", "week"
	Value  int    `json:"value"`
}

// Duration converts the granularity to a time.Duration.
func (g Granularity) Duration() (time.Duration, error) {
	v := g.Value
	if v <= 0 {
		v = 1
	}
	switch strings.ToLower(g.Metric) {
	case "hour", "hours":
		return time.Duration(v) * time.Hour, nil
	case "day", "days", "":
		return time.Duration(v) * 24 * time.Hour, nil
	case "week", "weeks":
		return time.Duration(v) * 7 * 24 * time.Hour, nil
	default:
		return 0, fmt.Errorf("intent: unknown granularity metric %q", g.Metric)
	}
}

// Window is a [start, end] absolute time interval.
type Window struct {
	Start       string      `json:"start"`
	End         string      `json:"end"`
	Granularity Granularity `json:"granularity,omitempty"`
}

// MaintenanceWindow is the nightly local-time window in which changes may
// execute, e.g. 0:00-6:00 local. When set, each discretized timeslot is
// trimmed to these hours: a daily slot on July 2 becomes July 2 00:00 to
// July 2 06:00 — the actual execution window the dispatcher fires in.
type MaintenanceWindow struct {
	Start       string `json:"start"` // "0:00"
	End         string `json:"end"`   // "6:00"
	Granularity string `json:"granularity,omitempty"`
	Timezone    string `json:"timezone,omitempty"` // "local" or a UTC offset
}

// hours parses the window bounds as offsets from midnight; ok is false
// when the window is unset.
func (m MaintenanceWindow) hours() (start, end time.Duration, ok bool, err error) {
	if m.Start == "" && m.End == "" {
		return 0, 0, false, nil
	}
	parse := func(s string) (time.Duration, error) {
		var h, min int
		if _, err := fmt.Sscanf(s, "%d:%d", &h, &min); err != nil {
			return 0, fmt.Errorf("intent: bad maintenance_window time %q", s)
		}
		if h < 0 || h > 24 || min < 0 || min > 59 {
			return 0, fmt.Errorf("intent: maintenance_window time %q out of range", s)
		}
		return time.Duration(h)*time.Hour + time.Duration(min)*time.Minute, nil
	}
	if start, err = parse(m.Start); err != nil {
		return 0, 0, false, err
	}
	if end, err = parse(m.End); err != nil {
		return 0, 0, false, err
	}
	if end <= start {
		return 0, 0, false, fmt.Errorf("intent: maintenance_window end %q not after start %q", m.End, m.Start)
	}
	return start, end, true, nil
}

// Period is a time interval used for exclusions, freezes, and conflicts.
type Period struct {
	Start string `json:"start,omitempty"`
	End   string `json:"end,omitempty"`
}

// FrozenElement forbids scheduling for elements selected by an attribute
// (ESA or non-ESA), optionally only within a period. Exactly one attribute
// selector is used; it is stored as a generic map in JSON, mirroring
// Listing 1 where "common_id" or "market" keys appear directly.
type FrozenElement struct {
	Attribute string // e.g. "common_id" or "market"
	Value     string
	Start     string
	End       string
}

// MarshalJSON writes the on-the-wire shape: attribute name as a dynamic
// key. A selector that is empty or named like the period keys has no such
// shape — it would collide with them and decode as something else — and is
// an error, so a Request's JSON stays a faithful image of its content (the
// serving layer keys on it).
func (f FrozenElement) MarshalJSON() ([]byte, error) {
	if f.Attribute == "" || f.Attribute == "start" || f.Attribute == "end" {
		return nil, fmt.Errorf("intent: frozen element selector %q has no JSON form", f.Attribute)
	}
	m := map[string]string{f.Attribute: f.Value}
	if f.Start != "" {
		m["start"] = f.Start
	}
	if f.End != "" {
		m["end"] = f.End
	}
	return json.Marshal(m)
}

// UnmarshalJSON extracts the single non start/end key as the selector.
func (f *FrozenElement) UnmarshalJSON(data []byte) error {
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*f = FrozenElement{}
	for k, v := range m {
		switch k {
		case "start":
			f.Start = v
		case "end":
			f.End = v
		default:
			if f.Attribute != "" {
				return fmt.Errorf("intent: frozen element has multiple selectors (%q and %q)", f.Attribute, k)
			}
			f.Attribute, f.Value = k, v
		}
	}
	if f.Attribute == "" {
		return fmt.Errorf("intent: frozen element has no attribute selector")
	}
	return nil
}

// ConflictEntry records an existing change (from the ticketing system) that
// occupies an element during a period.
type ConflictEntry struct {
	Start   string   `json:"start"`
	End     string   `json:"end"`
	Tickets []string `json:"tickets,omitempty"`
}

// ConstraintName enumerates the high-level templates of Section 3.3.1.
type ConstraintName string

const (
	ConflictHandling ConstraintName = "conflict_handling"
	Concurrency      ConstraintName = "concurrency"
	Consistency      ConstraintName = "consistency"
	Uniformity       ConstraintName = "uniformity"
	Localize         ConstraintName = "localize"
)

// Constraint is one instance of a constraint template. Fields are a union
// across templates; Validate checks per-template requirements.
type Constraint struct {
	Name ConstraintName `json:"name"`
	// conflict_handling: "zero-conflicts" | "minimize-conflicts".
	Value any `json:"value,omitempty"`
	// concurrency fields.
	BaseAttribute      string      `json:"base_attribute,omitempty"`
	AggregateAttribute string      `json:"aggregate_attribute,omitempty"`
	Operator           string      `json:"operator,omitempty"`
	Granularity        Granularity `json:"granularity,omitempty"`
	DefaultCapacity    int         `json:"default_capacity,omitempty"`
	// consistency / uniformity / localize attribute.
	Attribute string `json:"attribute,omitempty"`
}

// uniformityMaxDistance returns the numeric max-distance of a uniformity
// constraint (Listing 1 uses "value": 1 for adjacent timezones).
func (c Constraint) uniformityMaxDistance() float64 {
	switch v := c.Value.(type) {
	case float64:
		return v
	case int:
		return float64(v)
	case string:
		var f float64
		fmt.Sscanf(v, "%f", &f)
		return f
	default:
		return 0
	}
}

// UniformityMaxDistance exposes the parsed uniformity distance.
func (c Constraint) UniformityMaxDistance() float64 { return c.uniformityMaxDistance() }

// Validate checks per-template field requirements.
func (c Constraint) Validate() error {
	switch c.Name {
	case ConflictHandling:
		s, _ := c.Value.(string)
		if s != "zero-conflicts" && s != "minimize-conflicts" {
			return fmt.Errorf("intent: conflict_handling value must be zero-conflicts or minimize-conflicts, got %v", c.Value)
		}
	case Concurrency:
		if c.BaseAttribute == "" {
			return fmt.Errorf("intent: concurrency constraint needs base_attribute")
		}
		if c.Operator != "" && c.Operator != "<=" && c.Operator != "<" {
			return fmt.Errorf("intent: concurrency operator %q not supported", c.Operator)
		}
		if c.DefaultCapacity <= 0 {
			return fmt.Errorf("intent: concurrency constraint needs a positive default_capacity")
		}
	case Consistency, Localize:
		if c.Attribute == "" {
			return fmt.Errorf("intent: %s constraint needs attribute", c.Name)
		}
	case Uniformity:
		if c.Attribute == "" {
			return fmt.Errorf("intent: uniformity constraint needs attribute")
		}
		if c.uniformityMaxDistance() < 0 {
			return fmt.Errorf("intent: uniformity max distance must be >= 0")
		}
	default:
		return fmt.Errorf("intent: unknown constraint template %q", c.Name)
	}
	return nil
}

// Request is the full high-level optimization intent (Listing 1).
type Request struct {
	SchedulingWindow     Window                     `json:"scheduling_window"`
	MaintenanceWindow    MaintenanceWindow          `json:"maintenance_window"`
	ExcludedPeriods      []Period                   `json:"excluded_periods,omitempty"`
	SchedulableAttribute string                     `json:"schedulable_attribute"`
	ConflictAttribute    string                     `json:"conflict_attribute"`
	Inventory            string                     `json:"inventory,omitempty"` // name of an inventory query
	FrozenElements       []FrozenElement            `json:"frozen_elements,omitempty"`
	ConflictTable        map[string][]ConflictEntry `json:"conflict_table,omitempty"`
	Constraints          []Constraint               `json:"constraints"`
	// ChangeDuration is the per-node change duration in maintenance
	// windows (Fig. 12); defaults to 1.
	ChangeDuration int `json:"change_duration,omitempty"`
}

// Parse decodes and validates a JSON intent document. The document must be
// the only thing in data: anything but whitespace after it is an error.
func Parse(data []byte) (*Request, error) {
	var r Request
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("intent: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return nil, fmt.Errorf("intent: unexpected data after the document")
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// Validate checks the request invariants.
func (r *Request) Validate() error {
	if _, _, err := r.windowTimes(); err != nil {
		return err
	}
	if r.SchedulableAttribute == "" {
		return fmt.Errorf("intent: schedulable_attribute (ESA) is required")
	}
	if r.ConflictAttribute == "" {
		r.ConflictAttribute = r.SchedulableAttribute
	}
	if r.ChangeDuration < 0 {
		return fmt.Errorf("intent: change_duration must be >= 0")
	}
	seenHandling := false
	for i, c := range r.Constraints {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("constraint %d: %w", i, err)
		}
		if c.Name == ConflictHandling {
			if seenHandling {
				return fmt.Errorf("intent: multiple conflict_handling constraints")
			}
			seenHandling = true
		}
	}
	for i, f := range r.FrozenElements {
		if f.Attribute == "" {
			return fmt.Errorf("intent: frozen element %d has no selector", i)
		}
	}
	return nil
}

func (r *Request) windowTimes() (start, end time.Time, err error) {
	start, err = time.Parse(TimeLayout, r.SchedulingWindow.Start)
	if err != nil {
		return start, end, fmt.Errorf("intent: bad scheduling_window.start: %w", err)
	}
	end, err = time.Parse(TimeLayout, r.SchedulingWindow.End)
	if err != nil {
		return start, end, fmt.Errorf("intent: bad scheduling_window.end: %w", err)
	}
	if !end.After(start) {
		return start, end, fmt.Errorf("intent: scheduling_window end must be after start")
	}
	return start, end, nil
}

// Timeslot is one schedulable maintenance window. Start/End are the
// execution bounds: the discretization point trimmed to the maintenance
// window's hours when one is configured.
type Timeslot struct {
	Index int
	Start time.Time
	End   time.Time
}

// Timeslots discretizes the scheduling window by its granularity, dropping
// slots that overlap an excluded period (holidays, special events).
func (r *Request) Timeslots() ([]Timeslot, error) {
	start, end, err := r.windowTimes()
	if err != nil {
		return nil, err
	}
	step, err := r.SchedulingWindow.Granularity.Duration()
	if err != nil {
		return nil, err
	}
	type iv struct{ s, e time.Time }
	var excluded []iv
	for i, p := range r.ExcludedPeriods {
		s, err := time.Parse(TimeLayout, p.Start)
		if err != nil {
			return nil, fmt.Errorf("intent: excluded_periods[%d].start: %w", i, err)
		}
		e, err := time.Parse(TimeLayout, p.End)
		if err != nil {
			return nil, fmt.Errorf("intent: excluded_periods[%d].end: %w", i, err)
		}
		excluded = append(excluded, iv{s, e})
	}
	var slots []Timeslot
	idx := 0
	for t := start; t.Before(end); t = t.Add(step) {
		slotEnd := t.Add(step)
		if slotEnd.After(end) {
			slotEnd = end
		}
		skip := false
		for _, ex := range excluded {
			if t.Before(ex.e) && ex.s.Before(slotEnd) {
				skip = true
				break
			}
		}
		if !skip {
			slots = append(slots, Timeslot{Index: idx, Start: t, End: slotEnd})
			idx++
		}
	}
	if len(slots) == 0 {
		return nil, fmt.Errorf("intent: scheduling window contains no usable timeslots")
	}
	// Trim each slot to the nightly maintenance window (e.g. 0:00-6:00):
	// exclusion and conflict overlap above use the full discretization
	// span, but execution happens inside the trimmed bounds.
	if mwStart, mwEnd, ok, err := r.MaintenanceWindow.hours(); err != nil {
		return nil, err
	} else if ok {
		for i := range slots {
			day := slots[i].Start.Truncate(24 * time.Hour)
			s, e := day.Add(mwStart), day.Add(mwEnd)
			if s.After(slots[i].Start) && s.Before(slots[i].End) {
				slots[i].Start = s
			}
			if e.After(slots[i].Start) && e.Before(slots[i].End) {
				slots[i].End = e
			}
		}
	}
	return slots, nil
}

// MinimizeConflicts reports whether the intent asks for conflict
// minimization rather than a conflict-free (zero tolerance) schedule.
// Zero tolerance is the default, matching operations practice.
func (r *Request) MinimizeConflicts() bool {
	for _, c := range r.Constraints {
		if c.Name == ConflictHandling {
			s, _ := c.Value.(string)
			return s == "minimize-conflicts"
		}
	}
	return false
}

// ByName returns all constraint instances of one template.
func (r *Request) ByName(name ConstraintName) []Constraint {
	var out []Constraint
	for _, c := range r.Constraints {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// SlotConflicts resolves the conflict table against the computed timeslots:
// for each element id, the sorted slot indexes that overlap an existing
// change. The planner forbids (zero tolerance) or penalizes (minimize)
// these placements.
func (r *Request) SlotConflicts(slots []Timeslot) (map[string][]int, error) {
	out := make(map[string][]int)
	for id, entries := range r.ConflictTable {
		seen := map[int]bool{}
		for i, ce := range entries {
			s, err := time.Parse(TimeLayout, ce.Start)
			if err != nil {
				return nil, fmt.Errorf("intent: conflict_table[%s][%d].start: %w", id, i, err)
			}
			e, err := time.Parse(TimeLayout, ce.End)
			if err != nil {
				return nil, fmt.Errorf("intent: conflict_table[%s][%d].end: %w", id, i, err)
			}
			for _, slot := range slots {
				if slot.Start.Before(e) && s.Before(slot.End) {
					seen[slot.Index] = true
				}
			}
		}
		if len(seen) > 0 {
			idxs := make([]int, 0, len(seen))
			for k := range seen {
				idxs = append(idxs, k)
			}
			sort.Ints(idxs)
			out[id] = idxs
		}
	}
	return out, nil
}

// FrozenSlots resolves frozen elements to per-attribute-value banned slot
// indexes. An entry without start/end freezes the full window (nil slice
// means "all slots").
type FrozenSlots struct {
	Attribute string
	Value     string
	Slots     []int // nil = every slot
}

// ResolveFrozen converts FrozenElements into slot index sets.
func (r *Request) ResolveFrozen(slots []Timeslot) ([]FrozenSlots, error) {
	var out []FrozenSlots
	for i, f := range r.FrozenElements {
		if f.Start == "" && f.End == "" {
			out = append(out, FrozenSlots{Attribute: f.Attribute, Value: f.Value})
			continue
		}
		s, err := time.Parse(TimeLayout, f.Start)
		if err != nil {
			return nil, fmt.Errorf("intent: frozen_elements[%d].start: %w", i, err)
		}
		e, err := time.Parse(TimeLayout, f.End)
		if err != nil {
			return nil, fmt.Errorf("intent: frozen_elements[%d].end: %w", i, err)
		}
		if e.Before(s) {
			return nil, fmt.Errorf("intent: frozen_elements[%d] end before start", i)
		}
		var banned []int
		for _, slot := range slots {
			// A freeze with equal start/end (Listing 1 line 8-9) bans the
			// slot containing that instant.
			if (slot.Start.Before(e) && s.Before(slot.End)) ||
				(s.Equal(e) && !s.Before(slot.Start) && s.Before(slot.End)) {
				banned = append(banned, slot.Index)
			}
		}
		if len(banned) > 0 {
			out = append(out, FrozenSlots{Attribute: f.Attribute, Value: f.Value, Slots: banned})
		}
	}
	return out, nil
}
