// Package engine names CORNET's planning backends and reports their
// search effort in uniform terms.
//
// The paper's planner (Section 3.3) uses a generic constraint solver below
// a scale limit and the Appendix-C heuristic above it. That choice is made
// once, in core.ResolvePolicy, and core.RunPlan runs the chosen backend;
// this package holds only the vocabulary both sides share: the Policy a
// request asks for and the Stats a backend run reports, which the cmd/
// binaries surface.
package engine

import (
	"fmt"
	"time"
)

// Policy names a planning backend choice. core.ResolvePolicy settles
// Threshold to one of the Force values before a request is built.
type Policy string

const (
	// Threshold picks the model-driven solver up to the framework's
	// ScaleThreshold request elements and the Algorithm-1 heuristic beyond.
	Threshold Policy = "threshold"
	// ForceSolver pins the model-driven solver backend.
	ForceSolver Policy = "solver"
	// ForceHeuristic pins the Algorithm-1 heuristic backend.
	ForceHeuristic Policy = "heuristic"
)

// ParsePolicy maps the CLI spellings (auto, solver, heuristic) onto a
// Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "auto", "threshold":
		return Threshold, nil
	case "solver":
		return ForceSolver, nil
	case "heuristic":
		return ForceHeuristic, nil
	}
	return "", fmt.Errorf("engine: unknown policy %q (want auto|solver|heuristic)", s)
}

// Stats reports one backend run's search effort in uniform terms. Its JSON
// form is the "stats" entry of cornetd's /api/plan answer.
type Stats struct {
	// Backend names the implementation ("solver" or "heuristic").
	Backend string `json:"backend"`
	// Wall is the backend's wall-clock solve time (integer nanoseconds on
	// the wire).
	Wall time.Duration `json:"wall_ns"`
	// Nodes counts branch-and-bound nodes explored (solver backend).
	Nodes int64 `json:"nodes,omitempty"`
	// Restarts is the local-search restart budget (heuristic backend).
	Restarts int `json:"restarts,omitempty"`
	// Workers is the search parallelism the backend actually used.
	Workers int `json:"workers,omitempty"`
	// NodesPerWorker is Nodes/Workers for the solver backend — the mean
	// per-worker exploration effort (0 when Workers is unknown).
	NodesPerWorker int64 `json:"nodes_per_worker,omitempty"`
	// DomainPrunes counts start slots the solver removed from block
	// domains via capacity forward-checking (0 for the heuristic).
	DomainPrunes int64 `json:"-"`
	// Steals counts subtree tasks idle workers took from peers during a
	// work-stealing parallel solver search (0 when sequential or
	// heuristic).
	Steals int64 `json:"steals,omitempty"`
	// Splits counts search nodes the solver published as stealable
	// subtree descriptors.
	Splits int64 `json:"splits,omitempty"`
	// ReplayNodes counts prefix decisions thieves replayed to
	// reconstruct stolen subtrees — the search's load-balancing overhead.
	ReplayNodes int64 `json:"replay_nodes,omitempty"`
	// WarmStart reports that the solver's search was seeded with a cached
	// incumbent instead of solving cold.
	WarmStart bool `json:"-"`
	// Objective is the backend's own objective value (model cost for the
	// solver, weighted total completion time for the heuristic).
	Objective int64 `json:"objective"`
	Conflicts int   `json:"conflicts"`
	TimedOut  bool  `json:"timed_out,omitempty"`
	// Winner marks the run whose result was returned: a successful one.
	Winner bool `json:"winner,omitempty"`
}
