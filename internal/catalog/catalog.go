// Package catalog implements CORNET's building-block catalog (Section 3.1).
//
// A change method of procedure (MOP) is decomposed into reusable building
// blocks (BBs). Each BB is a software module defined by an input/output
// parameter list and reachable through a REST API; its metadata (API
// location, parameter definitions, implementation kind, NF-agnostic flag)
// is stored here. The workflow designer composes catalog entries into
// change workflows, and the code-reuse accounting of Section 4 counts how
// many modules a custom (per-NF) solution would have needed versus CORNET.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Phase classifies a building block by the change-management phase it
// serves, matching the left column of Table 2.
type Phase string

const (
	PhaseDesign   Phase = "design-and-orchestration"
	PhasePlanning Phase = "schedule-planning"
	PhaseVerify   Phase = "impact-verification"
)

// ImplKind records how a building block is implemented. The paper's blocks
// are Ansible playbooks, NetConf, Chef recipes, Python scripts and vendor
// CLIs; the constants name the kinds this repository's catalog seeds.
type ImplKind string

const (
	ImplAnsible   ImplKind = "ansible"
	ImplScript    ImplKind = "script" // command-line / Python scripts
	ImplVendorCLI ImplKind = "vendor-cli"
	ImplNative    ImplKind = "native" // data-analytic BBs implemented in-process
)

// Param describes one input or output parameter of a building block.
// Parameter lists must be defined carefully to support stitching: an edge
// in a workflow is only valid if the downstream block's required inputs are
// satisfied by upstream outputs or workflow inputs.
type Param struct {
	Name     string `json:"name"`
	Type     string `json:"type"` // string, int, bool, json
	Required bool   `json:"required,omitempty"`
	Doc      string `json:"doc,omitempty"`
}

// BuildingBlock is a catalog entry: the metadata for one reusable module.
type BuildingBlock struct {
	// Name identifies the capability, e.g. "health-check".
	Name string `json:"name"`
	// Phase is the change-management phase this block belongs to.
	Phase Phase `json:"phase"`
	// Function is the human-readable description from Table 2.
	Function string `json:"function"`
	// NFAgnostic reports whether one implementation serves every network
	// function type. NF-specific blocks need one implementation per NF
	// type (and often per vendor).
	NFAgnostic bool `json:"nf_agnostic"`
	// NFType is the network function type an NF-specific implementation
	// targets; empty for NF-agnostic blocks.
	NFType string `json:"nf_type,omitempty"`
	// Impl records the implementation technology.
	Impl ImplKind `json:"impl"`
	// APILocation is the REST endpoint that invokes the block.
	APILocation string `json:"api_location"`
	// Inputs and Outputs are the block's parameter lists.
	Inputs  []Param `json:"inputs,omitempty"`
	Outputs []Param `json:"outputs,omitempty"`
	// Version supports evolution of block implementations over time.
	Version int `json:"version"`
}

// Key returns the registry key for a block: NF-agnostic blocks register
// once under their name; NF-specific blocks register per NF type.
func (b *BuildingBlock) Key() string {
	if b.NFAgnostic || b.NFType == "" {
		return b.Name
	}
	return b.Name + "@" + b.NFType
}

// Validate checks structural invariants of a catalog entry.
func (b *BuildingBlock) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("catalog: building block needs a name")
	}
	if strings.ContainsAny(b.Name, " \t\n@") {
		return fmt.Errorf("catalog: block name %q must not contain spaces or '@'", b.Name)
	}
	if b.NFAgnostic && b.NFType != "" {
		return fmt.Errorf("catalog: NF-agnostic block %q must not set NFType", b.Name)
	}
	if !b.NFAgnostic && b.NFType == "" {
		return fmt.Errorf("catalog: NF-specific block %q must set NFType", b.Name)
	}
	switch b.Phase {
	case PhaseDesign, PhasePlanning, PhaseVerify:
	default:
		return fmt.Errorf("catalog: block %q has unknown phase %q", b.Name, b.Phase)
	}
	seen := map[string]bool{}
	for _, p := range append(append([]Param{}, b.Inputs...), b.Outputs...) {
		if p.Name == "" {
			return fmt.Errorf("catalog: block %q has unnamed parameter", b.Name)
		}
		_ = seen
	}
	for _, p := range b.Inputs {
		if seen[p.Name] {
			return fmt.Errorf("catalog: block %q duplicates input %q", b.Name, p.Name)
		}
		seen[p.Name] = true
	}
	return nil
}

// Catalog is a concurrency-safe registry of building blocks.
type Catalog struct {
	mu     sync.RWMutex
	blocks map[string]*BuildingBlock
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{blocks: make(map[string]*BuildingBlock)}
}

// Register validates and stores a block. Registering an existing key with a
// strictly higher version replaces the entry (supporting KPI/BB evolution,
// Fig. 6); equal or lower versions are rejected to prevent accidental
// regressions.
func (c *Catalog) Register(b *BuildingBlock) error {
	if err := b.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := b.Key()
	if prev, ok := c.blocks[key]; ok && b.Version <= prev.Version {
		return fmt.Errorf("catalog: %s version %d already registered (have %d); bump the version to update",
			key, b.Version, prev.Version)
	}
	c.blocks[key] = b
	return nil
}

// MustRegister panics on registration failure; used by seeders and tests.
func (c *Catalog) MustRegister(b *BuildingBlock) {
	if err := c.Register(b); err != nil {
		panic(err)
	}
}

// Lookup resolves a block for a network function type: it prefers an
// NF-specific implementation for nfType and falls back to an NF-agnostic
// entry. This is the catalog's core composition primitive — an NF-agnostic
// workflow names blocks abstractly, and resolution happens per target NF.
func (c *Catalog) Lookup(name, nfType string) (*BuildingBlock, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if nfType != "" {
		if b, ok := c.blocks[name+"@"+nfType]; ok {
			return b, nil
		}
	}
	if b, ok := c.blocks[name]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("catalog: no building block %q for NF type %q", name, nfType)
}

// List returns all blocks sorted by phase then key.
func (c *Catalog) List() []*BuildingBlock {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*BuildingBlock, 0, len(c.blocks))
	for _, b := range c.blocks {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Phase != out[j].Phase {
			return out[i].Phase < out[j].Phase
		}
		return out[i].Key() < out[j].Key()
	})
	return out
}

// Len reports the number of registered blocks.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.blocks)
}
