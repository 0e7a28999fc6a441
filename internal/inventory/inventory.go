// Package inventory models the network element inventory used throughout
// CORNET: the set of network function instances together with their typed
// attributes (market, TAC, USID, EMS, timezone, hardware and software
// versions, carrier frequencies, ...).
//
// The inventory is the substrate for every other subsystem: the schedule
// planner derives Elementary Schedulable Attribute (ESA) and aggregate
// attribute mappings from it, the impact verifier derives location and
// configuration aggregation groups, and the workflow designer resolves the
// network-function type of each target instance.
package inventory

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Attr names the attributes used by the paper's evaluation. Attributes are
// free-form strings so that new network functions can introduce new
// attributes without code changes (the point of NF-agnostic composition),
// but the common ones are declared here for discoverability.
const (
	AttrCommonID  = "common_id" // the unique element id, the usual ESA
	AttrMarket    = "market"
	AttrTAC       = "tac"      // tracking area code (cellular)
	AttrUSID      = "usid"     // a cell site: co-located eNodeB/gNodeB/NodeB
	AttrEMS       = "ems"      // element management system the node homes to
	AttrTimezone  = "timezone" // UTC offset, stored as a string number
	AttrRegion    = "region"
	AttrHWVersion = "hw_version"
	AttrSWVersion = "sw_version"
	AttrVendor    = "vendor"
	AttrNFType    = "nf_type"     // eNodeB, gNodeB, switch, vCE, vGW, ...
	AttrCarrier   = "carrier"     // carrier frequency class, CF-1..CF-5
	AttrRadioHead = "radio_head"  // one of the 27 radio head types
	AttrMIMOMode  = "mimo_mode"   // one of the 5 downlink MIMO modes
	AttrMorph     = "morphology"  // urban / suburban / rural
	AttrServer    = "host_server" // physical server hosting a VNF
	AttrSector    = "sector"
	AttrLayer     = "layer"       // edge / transport / core
	AttrDuration  = "duration_mw" // per-element change duration in maintenance windows
)

// Element is one network function instance. Attributes map attribute names
// to values; multi-valued attributes (e.g. the carrier frequencies present
// on an eNodeB) use MultiAttrs.
type Element struct {
	ID         string
	Attributes map[string]string
	MultiAttrs map[string][]string
}

// Attr returns the value of a single-valued attribute. The element id is
// addressable as the pseudo-attribute "common_id".
func (e *Element) Attr(name string) (string, bool) {
	if name == AttrCommonID {
		return e.ID, true
	}
	v, ok := e.Attributes[name]
	return v, ok
}

// Values returns all values an element holds for an attribute: the
// single-valued entry if present, otherwise the multi-valued list.
func (e *Element) Values(name string) []string {
	if v, ok := e.Attr(name); ok {
		return []string{v}
	}
	return e.MultiAttrs[name]
}

// Clone returns a deep copy of the element.
func (e *Element) Clone() *Element {
	c := &Element{ID: e.ID, Attributes: make(map[string]string, len(e.Attributes))}
	for k, v := range e.Attributes {
		c.Attributes[k] = v
	}
	if len(e.MultiAttrs) > 0 {
		c.MultiAttrs = make(map[string][]string, len(e.MultiAttrs))
		for k, v := range e.MultiAttrs {
			c.MultiAttrs[k] = append([]string(nil), v...)
		}
	}
	return c
}

// Inventory is a concurrency-safe collection of elements with secondary
// indexes per attribute value. The zero value is not usable; call New.
type Inventory struct {
	mu sync.RWMutex
	// id and version are the inventory's stamp (see Stamp).
	id       uint64
	version  uint64
	elements map[string]*Element
	order    []string // insertion order, for deterministic iteration
	// index[attr][value] -> sorted element ids
	index map[string]map[string][]string
}

// lastID hands out the process-unique inventory ids.
var lastID atomic.Uint64

// New returns an empty inventory.
func New() *Inventory {
	return &Inventory{
		id:       lastID.Add(1),
		elements: make(map[string]*Element),
		index:    make(map[string]map[string][]string),
	}
}

// Stamp identifies the inventory's current content without reading it: a
// process-unique id assigned in New plus a version counter bumped by every
// effective Add and SetAttr. Two equal stamps mean the same inventory in
// the same state, which lets callers memoise anything derived from it (the
// serving layer's request key, cornetd's edge subset) and invalidate on
// the next mutation.
func (inv *Inventory) Stamp() (id, version uint64) {
	inv.mu.RLock()
	defer inv.mu.RUnlock()
	return inv.id, inv.version
}

// Add inserts an element. It returns an error if the id is empty or already
// present: inventories are append-only snapshots in CORNET, mirroring the
// daily inventory feeds of the paper.
func (inv *Inventory) Add(e *Element) error {
	if e == nil || e.ID == "" {
		return fmt.Errorf("inventory: element must have a non-empty id")
	}
	inv.mu.Lock()
	defer inv.mu.Unlock()
	if _, dup := inv.elements[e.ID]; dup {
		return fmt.Errorf("inventory: duplicate element id %q", e.ID)
	}
	inv.version++
	inv.elements[e.ID] = e
	inv.order = append(inv.order, e.ID)
	for attr, val := range e.Attributes {
		inv.indexAdd(attr, val, e.ID)
	}
	for attr, vals := range e.MultiAttrs {
		for _, val := range vals {
			inv.indexAdd(attr, val, e.ID)
		}
	}
	return nil
}

func (inv *Inventory) indexAdd(attr, val, id string) {
	byVal := inv.index[attr]
	if byVal == nil {
		byVal = make(map[string][]string)
		inv.index[attr] = byVal
	}
	byVal[val] = append(byVal[val], id)
}

func (inv *Inventory) indexRemove(attr, val, id string) {
	byVal := inv.index[attr]
	ids := byVal[val]
	for i, got := range ids {
		if got == id {
			byVal[val] = append(ids[:i:i], ids[i+1:]...)
			break
		}
	}
	if len(byVal[val]) == 0 {
		delete(byVal, val)
		if len(byVal) == 0 {
			delete(inv.index, attr)
		}
	}
}

// SetAttr updates one single-valued attribute of an element and maintains
// the secondary indexes. The mutation is copy-on-write: the stored element
// is replaced by a modified clone, so *Element pointers handed out earlier
// (by Get or Filter callbacks) stay immutable snapshots that concurrent
// readers may keep using without synchronization. This is the write path
// the reconciliation controller uses to record applied changes, so it must
// be safe against planner and verifier reads racing with it.
func (inv *Inventory) SetAttr(id, attr, value string) error {
	if attr == AttrCommonID {
		return fmt.Errorf("inventory: cannot change element id via SetAttr")
	}
	inv.mu.Lock()
	defer inv.mu.Unlock()
	e, ok := inv.elements[id]
	if !ok {
		return fmt.Errorf("inventory: unknown element %q", id)
	}
	old, had := e.Attributes[attr]
	if had && old == value {
		return nil
	}
	next := e.Clone()
	if next.Attributes == nil {
		next.Attributes = make(map[string]string, 1)
	}
	next.Attributes[attr] = value
	inv.version++
	inv.elements[id] = next
	if had {
		inv.indexRemove(attr, old, id)
	}
	inv.indexAdd(attr, value, id)
	return nil
}

// MustAdd is Add that panics on error; convenient in generators and tests.
func (inv *Inventory) MustAdd(e *Element) {
	if err := inv.Add(e); err != nil {
		panic(err)
	}
}

// Get returns the element with the given id.
func (inv *Inventory) Get(id string) (*Element, bool) {
	inv.mu.RLock()
	defer inv.mu.RUnlock()
	e, ok := inv.elements[id]
	return e, ok
}

// Len reports the number of elements.
func (inv *Inventory) Len() int {
	inv.mu.RLock()
	defer inv.mu.RUnlock()
	return len(inv.elements)
}

// IDs returns all element ids in insertion order.
func (inv *Inventory) IDs() []string {
	inv.mu.RLock()
	defer inv.mu.RUnlock()
	return append([]string(nil), inv.order...)
}

// ByAttr returns the ids of all elements whose attribute attr has value val,
// in insertion order.
func (inv *Inventory) ByAttr(attr, val string) []string {
	inv.mu.RLock()
	defer inv.mu.RUnlock()
	if attr == AttrCommonID {
		if _, ok := inv.elements[val]; ok {
			return []string{val}
		}
		return nil
	}
	return append([]string(nil), inv.index[attr][val]...)
}

// AttrValues returns the distinct values observed for an attribute, sorted.
func (inv *Inventory) AttrValues(attr string) []string {
	inv.mu.RLock()
	defer inv.mu.RUnlock()
	byVal := inv.index[attr]
	vals := make([]string, 0, len(byVal))
	for v := range byVal {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	return vals
}

// GroupBy partitions element ids by the value of attr. Elements lacking the
// attribute are grouped under the empty string. Multi-valued attributes
// place the element in every value's group.
func (inv *Inventory) GroupBy(attr string) map[string][]string {
	inv.mu.RLock()
	defer inv.mu.RUnlock()
	groups := make(map[string][]string)
	for _, id := range inv.order {
		e := inv.elements[id]
		vals := e.Values(attr)
		if len(vals) == 0 {
			groups[""] = append(groups[""], id)
			continue
		}
		for _, v := range vals {
			groups[v] = append(groups[v], id)
		}
	}
	return groups
}

// Filter returns the ids of elements for which keep returns true, in
// insertion order.
func (inv *Inventory) Filter(keep func(*Element) bool) []string {
	inv.mu.RLock()
	defer inv.mu.RUnlock()
	var out []string
	for _, id := range inv.order {
		if keep(inv.elements[id]) {
			out = append(out, id)
		}
	}
	return out
}

// Subset returns a new inventory containing clones of the named elements.
// Unknown ids are skipped.
func (inv *Inventory) Subset(ids []string) *Inventory {
	sub := New()
	inv.mu.RLock()
	defer inv.mu.RUnlock()
	for _, id := range ids {
		if e, ok := inv.elements[id]; ok {
			sub.MustAdd(e.Clone())
		}
	}
	return sub
}

// String summarizes the inventory for logs.
func (inv *Inventory) String() string {
	inv.mu.RLock()
	defer inv.mu.RUnlock()
	attrs := make([]string, 0, len(inv.index))
	for a := range inv.index {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	return fmt.Sprintf("inventory{%d elements, attrs: %s}", len(inv.elements), strings.Join(attrs, ","))
}
