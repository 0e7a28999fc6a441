// Package kpi implements CORNET's KPI-equation engine: operations teams
// define key performance indicators as arithmetic equations over raw
// performance counters ("100 * rrc_success / rrc_attempts"), organize them
// into groups (scorecard, level-1..3), and compose them into verification
// rules. Counters may be qualified with a source table ("acc.rrc_success")
// — the number of distinct tables a KPI touches determines its join depth,
// the cost driver of Table 5 and Fig. 10.
package kpi

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Expr is a parsed KPI equation.
type Expr struct {
	root    node
	src     string
	counter []string // distinct counter references, sorted
}

type node interface {
	eval(get func(string) float64) float64
}

type numNode float64

func (n numNode) eval(func(string) float64) float64 { return float64(n) }

type refNode string

func (r refNode) eval(get func(string) float64) float64 { return get(string(r)) }

type binNode struct {
	op   byte
	l, r node
}

func (b binNode) eval(get func(string) float64) float64 {
	l, r := b.l.eval(get), b.r.eval(get)
	switch b.op {
	case '+':
		return l + r
	case '-':
		return l - r
	case '*':
		return l * r
	case '/':
		if r == 0 {
			return math.NaN()
		}
		return l / r
	}
	return math.NaN()
}

type negNode struct{ x node }

func (n negNode) eval(get func(string) float64) float64 { return -n.x.eval(get) }

// Parse compiles a KPI equation. Supported grammar:
//
//	expr   := term (('+'|'-') term)*
//	term   := unary (('*'|'/') unary)*
//	unary  := '-' unary | atom
//	atom   := number | counter | '(' expr ')'
//
// Counter names are identifiers, optionally table-qualified with a dot:
// "acc.rrc_success".
func Parse(src string) (*Expr, error) {
	p := &parser{src: src}
	p.next()
	root, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok != tokEOF {
		return nil, fmt.Errorf("kpi: unexpected %q at offset %d in %q", p.lit, p.pos, src)
	}
	set := map[string]bool{}
	collect(root, set)
	counters := make([]string, 0, len(set))
	for c := range set {
		counters = append(counters, c)
	}
	sort.Strings(counters)
	return &Expr{root: root, src: src, counter: counters}, nil
}

func collect(n node, set map[string]bool) {
	switch t := n.(type) {
	case refNode:
		set[string(t)] = true
	case binNode:
		collect(t.l, set)
		collect(t.r, set)
	case negNode:
		collect(t.x, set)
	}
}

// String returns the source equation.
func (e *Expr) String() string { return e.src }

// Counters returns the distinct counter references, sorted.
func (e *Expr) Counters() []string { return append([]string(nil), e.counter...) }

// Tables returns the distinct table qualifiers referenced ("" for
// unqualified counters), sorted.
func (e *Expr) Tables() []string {
	set := map[string]bool{}
	for _, c := range e.counter {
		if i := strings.IndexByte(c, '.'); i >= 0 {
			set[c[:i]] = true
		} else {
			set[""] = true
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Eval computes the equation for one set of counter values. Missing
// counters evaluate to NaN, which propagates.
func (e *Expr) Eval(values map[string]float64) float64 {
	return e.root.eval(func(name string) float64 {
		if v, ok := values[name]; ok {
			return v
		}
		return math.NaN()
	})
}

// EvalSeries computes the equation pointwise over counter series. All
// referenced series must have equal length; the shortest bound is used and
// missing counters yield NaN samples.
func (e *Expr) EvalSeries(series map[string][]float64) []float64 {
	length := -1
	for _, c := range e.counter {
		if s, ok := series[c]; ok {
			if length == -1 || len(s) < length {
				length = len(s)
			}
		}
	}
	if length <= 0 {
		return nil
	}
	out := make([]float64, length)
	vals := map[string]float64{}
	for t := 0; t < length; t++ {
		for _, c := range e.counter {
			if s, ok := series[c]; ok {
				vals[c] = s[t]
			} else {
				vals[c] = math.NaN()
			}
		}
		out[t] = e.Eval(vals)
	}
	return out
}

// --- Lexer/parser ---------------------------------------------------------

type token int

const (
	tokEOF token = iota
	tokNum
	tokIdent
	tokOp
	tokLParen
	tokRParen
	tokErr
)

type parser struct {
	src string
	pos int
	tok token
	lit string
}

func (p *parser) next() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n') {
		p.pos++
	}
	if p.pos >= len(p.src) {
		p.tok, p.lit = tokEOF, ""
		return
	}
	c := p.src[p.pos]
	switch {
	case c >= '0' && c <= '9' || c == '.':
		start := p.pos
		for p.pos < len(p.src) && (p.src[p.pos] >= '0' && p.src[p.pos] <= '9' || p.src[p.pos] == '.' ||
			p.src[p.pos] == 'e' || p.src[p.pos] == 'E') {
			p.pos++
		}
		p.tok, p.lit = tokNum, p.src[start:p.pos]
	case isIdentStart(c):
		start := p.pos
		for p.pos < len(p.src) && isIdentPart(p.src[p.pos]) {
			p.pos++
		}
		p.tok, p.lit = tokIdent, p.src[start:p.pos]
	case c == '+' || c == '-' || c == '*' || c == '/':
		p.tok, p.lit = tokOp, string(c)
		p.pos++
	case c == '(':
		p.tok, p.lit = tokLParen, "("
		p.pos++
	case c == ')':
		p.tok, p.lit = tokRParen, ")"
		p.pos++
	default:
		p.tok, p.lit = tokErr, string(c)
	}
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '.'
}

func (p *parser) parseExpr() (node, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.tok == tokOp && (p.lit == "+" || p.lit == "-") {
		op := p.lit[0]
		p.next()
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		left = binNode{op: op, l: left, r: right}
	}
	return left, nil
}

func (p *parser) parseTerm() (node, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok == tokOp && (p.lit == "*" || p.lit == "/") {
		op := p.lit[0]
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = binNode{op: op, l: left, r: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (node, error) {
	if p.tok == tokOp && p.lit == "-" {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return negNode{x}, nil
	}
	return p.parseAtom()
}

func (p *parser) parseAtom() (node, error) {
	switch p.tok {
	case tokNum:
		f, err := strconv.ParseFloat(p.lit, 64)
		if err != nil {
			return nil, fmt.Errorf("kpi: bad number %q", p.lit)
		}
		p.next()
		return numNode(f), nil
	case tokIdent:
		name := p.lit
		if strings.HasSuffix(name, ".") || strings.Contains(name, "..") {
			return nil, fmt.Errorf("kpi: malformed counter reference %q", name)
		}
		p.next()
		return refNode(name), nil
	case tokLParen:
		p.next()
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.tok != tokRParen {
			return nil, fmt.Errorf("kpi: missing ')' in %q", p.src)
		}
		p.next()
		return inner, nil
	default:
		return nil, fmt.Errorf("kpi: unexpected %q at offset %d in %q", p.lit, p.pos, p.src)
	}
}
