// Package workflow implements CORNET's graph-based change workflow designer
// (Section 3.2).
//
// A workflow (the automated form of a MOP, method of procedure) is a
// directed graph whose task nodes reference building blocks from the
// catalog and whose decision nodes branch on a prior block's outcome — the
// BPMN model of Fig. 4. Workflows carry input/output parameters; blocks
// exchange values through global state variables scoped to one execution.
//
// Before deployment a workflow is verified: every building block must have
// an incoming and an outgoing edge (no "zombie" blocks), the graph must
// reach an end node from start, decision nodes must have both branches,
// and every block's required inputs must be producible by upstream outputs
// or workflow inputs.
//
// Task nodes may carry an execution policy (resilience.Policy: per-attempt
// timeout, retry budget, backoff, failure action) and a compensation block
// for the rollback action; both deploy with the workflow artifact, so a
// change's robustness posture travels with the change.
package workflow

import (
	"encoding/json"
	"fmt"
	"sort"

	"cornet/internal/orchestrator/resilience"
)

// NodeKind enumerates the BPMN-ish node types the designer supports.
type NodeKind string

// The node kinds: every workflow has one Start and at least one End;
// Task nodes invoke catalog building blocks and Decision nodes branch on
// the preceding task's recorded status.
const (
	Start    NodeKind = "start"
	End      NodeKind = "end"
	Task     NodeKind = "task"     // invokes a building block
	Decision NodeKind = "decision" // branches on the last task's status
)

// Node is one vertex of the workflow graph.
type Node struct {
	ID   string   `json:"id"`
	Kind NodeKind `json:"kind"`
	// Block names the catalog building block a Task invokes.
	Block string `json:"block,omitempty"`
	// Args maps block input names to either literal values ("=value") or
	// workflow-state variable references ("$var").
	Args map[string]string `json:"args,omitempty"`
	// Saves maps block output names to workflow-state variable names the
	// value is stored under after the task completes.
	Saves map[string]string `json:"saves,omitempty"`
	// Cond names the state variable a Decision inspects; the branch taken
	// is "yes" when the variable equals "success" or "true".
	Cond string `json:"cond,omitempty"`
	// Policy optionally declares the execution policy for a Task —
	// per-attempt timeout, retry budget, backoff, and the failure action
	// taken when attempts are exhausted. It deploys inside the artifact
	// (like the paper's Camunda config in the generated WAR) and overlays
	// the engine-level defaults field by field; nil inherits them all.
	Policy *resilience.Policy `json:"policy,omitempty"`
	// Compensate names the building block invoked as this Task's
	// compensation when Policy.OnExhausted is "rollback". Empty defaults
	// to the catalog roll-back block.
	Compensate string `json:"compensate,omitempty"`
}

// Edge connects two nodes. Label is "" for unconditional edges and
// "yes"/"no" for the two branches out of a decision node.
type Edge struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Label string `json:"label,omitempty"`
}

// Param declares a workflow-level input.
type Param struct {
	Name     string `json:"name"`
	Required bool   `json:"required,omitempty"`
	Doc      string `json:"doc,omitempty"`
}

// Workflow is a change workflow design: the unit the designer composes,
// verifies, and deploys.
type Workflow struct {
	Name   string  `json:"name"`
	Doc    string  `json:"doc,omitempty"`
	Inputs []Param `json:"inputs,omitempty"`
	Nodes  []Node  `json:"nodes"`
	Edges  []Edge  `json:"edges"`
}

// New returns an empty workflow with the given name.
func New(name string) *Workflow {
	return &Workflow{Name: name}
}

// AddInput declares a workflow input parameter.
func (w *Workflow) AddInput(name string, required bool, doc string) *Workflow {
	w.Inputs = append(w.Inputs, Param{Name: name, Required: required, Doc: doc})
	return w
}

// AddNode appends a node; builder style, returns w for chaining.
func (w *Workflow) AddNode(n Node) *Workflow {
	w.Nodes = append(w.Nodes, n)
	return w
}

// AddEdge appends an edge.
func (w *Workflow) AddEdge(from, to, label string) *Workflow {
	w.Edges = append(w.Edges, Edge{From: from, To: to, Label: label})
	return w
}

// node returns the node with the given id.
func (w *Workflow) node(id string) (*Node, bool) {
	for i := range w.Nodes {
		if w.Nodes[i].ID == id {
			return &w.Nodes[i], true
		}
	}
	return nil, false
}

// StartNode returns the unique start node id ("" if absent).
func (w *Workflow) StartNode() string {
	for _, n := range w.Nodes {
		if n.Kind == Start {
			return n.ID
		}
	}
	return ""
}

// Succ returns the successors of a node as label->target.
func (w *Workflow) Succ(id string) map[string]string {
	out := make(map[string]string)
	for _, e := range w.Edges {
		if e.From == id {
			out[e.Label] = e.To
		}
	}
	return out
}

// VerifyError aggregates all problems found during verification so that a
// designer UI can show every issue at once.
type VerifyError struct {
	Problems []string
}

// Error summarizes the problem count and list in one line.
func (e *VerifyError) Error() string {
	return fmt.Sprintf("workflow verification failed: %d problem(s): %v", len(e.Problems), e.Problems)
}

// BlockInfo is what the verifier needs to know about a catalog building
// block; decoupled from the catalog package so workflow has no dependency
// on it.
type BlockInfo struct {
	Inputs  []ParamSpec
	Outputs []ParamSpec
}

// ParamSpec mirrors catalog.Param for verification purposes.
type ParamSpec struct {
	Name     string
	Required bool
}

// BlockResolver resolves a block name to its parameter specification.
// Returning ok=false marks the block as unknown.
type BlockResolver func(block string) (BlockInfo, bool)

// Verify checks the structural invariants of the workflow. Passing a nil
// resolver skips parameter-flow checking (structure-only verification, the
// zombie check of Section 3.2); with a resolver it additionally validates
// that every required block input is satisfiable.
func (w *Workflow) Verify(resolve BlockResolver) error {
	var problems []string
	add := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	// Unique ids; exactly one start; at least one end.
	seen := map[string]bool{}
	starts, ends := 0, 0
	for _, n := range w.Nodes {
		if n.ID == "" {
			add("node with empty id")
			continue
		}
		if seen[n.ID] {
			add("duplicate node id %q", n.ID)
		}
		seen[n.ID] = true
		switch n.Kind {
		case Start:
			starts++
		case End:
			ends++
		case Task:
			if n.Block == "" {
				add("task %q names no building block", n.ID)
			}
			if n.Policy != nil {
				if err := n.Policy.Validate(); err != nil {
					add("task %q: %v", n.ID, err)
				}
				if n.Policy.OnExhausted != resilience.ActionRollback && n.Compensate != "" {
					add("task %q declares a compensate block but its failure action is %q, not rollback", n.ID, n.Policy.OnExhausted)
				}
			} else if n.Compensate != "" {
				add("task %q declares a compensate block but no policy", n.ID)
			}
		case Decision:
			if n.Cond == "" {
				add("decision %q has no condition variable", n.ID)
			}
		default:
			add("node %q has unknown kind %q", n.ID, n.Kind)
		}
	}
	if starts != 1 {
		add("workflow must have exactly one start node, found %d", starts)
	}
	if ends == 0 {
		add("workflow has no end node")
	}

	// Edge endpoints must exist; decision branch labels must be yes/no.
	outEdges := map[string][]Edge{}
	inDeg := map[string]int{}
	for _, e := range w.Edges {
		if !seen[e.From] {
			add("edge from unknown node %q", e.From)
			continue
		}
		if !seen[e.To] {
			add("edge to unknown node %q", e.To)
			continue
		}
		outEdges[e.From] = append(outEdges[e.From], e)
		inDeg[e.To]++
	}
	for _, n := range w.Nodes {
		switch n.Kind {
		case Start:
			if len(outEdges[n.ID]) != 1 {
				add("start node %q must have exactly one outgoing edge", n.ID)
			}
			if inDeg[n.ID] != 0 {
				add("start node %q must have no incoming edges", n.ID)
			}
		case End:
			if len(outEdges[n.ID]) != 0 {
				add("end node %q must have no outgoing edges", n.ID)
			}
			if inDeg[n.ID] == 0 {
				add("end node %q is unreachable (no incoming edge)", n.ID)
			}
		case Task:
			// The zombie check: a building block with no incoming or no
			// outgoing edge to another block/decision/start/end.
			if inDeg[n.ID] == 0 || len(outEdges[n.ID]) == 0 {
				add("zombie building block %q (incoming=%d outgoing=%d)", n.ID, inDeg[n.ID], len(outEdges[n.ID]))
			}
			if len(outEdges[n.ID]) > 1 {
				add("task %q has %d outgoing edges; route branching through a decision node", n.ID, len(outEdges[n.ID]))
			}
		case Decision:
			labels := map[string]bool{}
			for _, e := range outEdges[n.ID] {
				labels[e.Label] = true
			}
			if !labels["yes"] || !labels["no"] {
				add("decision %q must have both yes and no branches", n.ID)
			}
			if inDeg[n.ID] == 0 {
				add("decision %q is unreachable", n.ID)
			}
		}
	}

	// Reachability from start; an end must be reachable.
	if start := w.StartNode(); start != "" {
		reach := map[string]bool{start: true}
		stack := []string{start}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range outEdges[u] {
				if !reach[e.To] {
					reach[e.To] = true
					stack = append(stack, e.To)
				}
			}
		}
		endReached := false
		for _, n := range w.Nodes {
			if !reach[n.ID] && n.Kind != Start {
				add("node %q unreachable from start", n.ID)
			}
			if n.Kind == End && reach[n.ID] {
				endReached = true
			}
		}
		if ends > 0 && !endReached {
			add("no end node reachable from start")
		}
	}

	if resolve != nil {
		problems = append(problems, w.verifyParamFlow(resolve, outEdges)...)
	}

	if len(problems) > 0 {
		sort.Strings(problems)
		return &VerifyError{Problems: problems}
	}
	return nil
}

// verifyParamFlow checks, along every path in topological exploration from
// start, that each task's required inputs are bound either to a literal, a
// workflow input, or a state variable saved by some upstream task. We use a
// conservative "defined anywhere upstream" analysis: a variable is
// available to a node if some predecessor path can define it; missing
// variables are reported per task input.
func (w *Workflow) verifyParamFlow(resolve BlockResolver, outEdges map[string][]Edge) []string {
	var problems []string
	wfInputs := map[string]bool{}
	for _, p := range w.Inputs {
		wfInputs[p.Name] = true
	}
	// Collect every state variable any task can save, then check literal
	// and reference bindings. (Exact per-path analysis is overkill for the
	// designer's needs and the paper's verification is the structural
	// zombie check; this adds a practical safety net.)
	saved := map[string]bool{}
	for _, n := range w.Nodes {
		if n.Kind != Task {
			continue
		}
		info, ok := resolve(n.Block)
		if !ok {
			problems = append(problems, fmt.Sprintf("task %q references unknown building block %q", n.ID, n.Block))
			continue
		}
		if n.Compensate != "" {
			if _, ok := resolve(n.Compensate); !ok {
				problems = append(problems, fmt.Sprintf("task %q references unknown compensation block %q", n.ID, n.Compensate))
			}
		}
		outNames := map[string]bool{}
		for _, o := range info.Outputs {
			outNames[o.Name] = true
		}
		for out, v := range n.Saves {
			if !outNames[out] {
				problems = append(problems, fmt.Sprintf("task %q saves unknown output %q of block %q", n.ID, out, n.Block))
			}
			saved[v] = true
		}
	}
	for _, n := range w.Nodes {
		if n.Kind != Task {
			continue
		}
		info, ok := resolve(n.Block)
		if !ok {
			continue // already reported
		}
		for _, in := range info.Inputs {
			if !in.Required {
				continue
			}
			binding, bound := n.Args[in.Name]
			if !bound {
				// Unbound required inputs default to the state variable of
				// the same name; workflow inputs satisfy this.
				if !wfInputs[in.Name] && !saved[in.Name] {
					problems = append(problems, fmt.Sprintf("task %q: required input %q of block %q is unbound", n.ID, in.Name, n.Block))
				}
				continue
			}
			if len(binding) > 0 && binding[0] == '$' {
				ref := binding[1:]
				if !wfInputs[ref] && !saved[ref] {
					problems = append(problems, fmt.Sprintf("task %q: input %q references undefined variable %q", n.ID, in.Name, ref))
				}
			}
		}
	}
	return problems
}

// MarshalJSON / UnmarshalJSON rely on the struct tags; Clone deep-copies
// via the JSON round trip, which is fast enough for design-time use.
func (w *Workflow) Clone() *Workflow {
	data, err := json.Marshal(w)
	if err != nil {
		panic(err) // all fields are marshalable by construction
	}
	var c Workflow
	if err := json.Unmarshal(data, &c); err != nil {
		panic(err)
	}
	return &c
}

// Blocks returns the distinct building-block names used by the workflow —
// including compensation blocks declared for rollback policies, so the
// deployment artifact resolves their REST locations too — sorted.
func (w *Workflow) Blocks() []string {
	set := map[string]bool{}
	for _, n := range w.Nodes {
		if n.Kind != Task {
			continue
		}
		if n.Block != "" {
			set[n.Block] = true
		}
		if n.Compensate != "" {
			set[n.Compensate] = true
		}
	}
	out := make([]string, 0, len(set))
	for b := range set {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// Stitch concatenates two verified workflows: the ends of a are rewired to
// the first real node of b, producing the composed workflow (e.g. software
// upgrade followed by a configuration change on the same node, §3.2). The
// inputs of both workflows are merged (by name).
func Stitch(name string, a, b *Workflow) (*Workflow, error) {
	if a.StartNode() == "" || b.StartNode() == "" {
		return nil, fmt.Errorf("workflow: both operands need a start node")
	}
	out := New(name)
	out.Doc = fmt.Sprintf("stitched: %s + %s", a.Name, b.Name)
	seenInput := map[string]bool{}
	for _, p := range append(append([]Param{}, a.Inputs...), b.Inputs...) {
		if !seenInput[p.Name] {
			seenInput[p.Name] = true
			out.Inputs = append(out.Inputs, p)
		}
	}

	prefixA, prefixB := "a:", "b:"
	// b's entry: the successor of b's start node.
	bStart := b.StartNode()
	bEntry := ""
	for _, e := range b.Edges {
		if e.From == bStart {
			bEntry = prefixB + e.To
		}
	}
	if bEntry == "" {
		return nil, fmt.Errorf("workflow: %s start has no successor", b.Name)
	}

	for _, n := range a.Nodes {
		if n.Kind == End {
			continue // a's ends are replaced by b's entry
		}
		n.ID = prefixA + n.ID
		out.Nodes = append(out.Nodes, n)
	}
	aEnds := map[string]bool{}
	for _, n := range a.Nodes {
		if n.Kind == End {
			aEnds[prefixA+n.ID] = true
		}
	}
	for _, e := range a.Edges {
		e.From, e.To = prefixA+e.From, prefixA+e.To
		if aEnds[e.To] {
			e.To = bEntry
		}
		out.Edges = append(out.Edges, e)
	}
	for _, n := range b.Nodes {
		if n.Kind == Start {
			continue // only one start in the stitched workflow
		}
		n.ID = prefixB + n.ID
		out.Nodes = append(out.Nodes, n)
	}
	for _, e := range b.Edges {
		if e.From == bStart {
			continue
		}
		e.From, e.To = prefixB+e.From, prefixB+e.To
		out.Edges = append(out.Edges, e)
	}
	return out, nil
}
