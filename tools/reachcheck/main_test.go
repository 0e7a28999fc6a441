package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

func TestNormalize(t *testing.T) {
	for _, tc := range []struct{ sym, want string }{
		{"cornet/internal/topology.(*Graph).KHop", "cornet/internal/topology.(*Graph).KHop"},
		{"cornet/internal/obs.ContextHandler.Handle", "cornet/internal/obs.ContextHandler.Handle"},
		// Type arguments, nested brackets included, are stripped.
		{"cornet/internal/plan/solver.carve[go.shape.struct { A []int; B map[string]int }]", "cornet/internal/plan/solver.carve"},
		{"cornet/x.(*List[go.shape.int]).Push", "cornet/x.(*List).Push"},
		// Closures and their nested closures fold into their parent.
		{"cornet/x.F.func1", "cornet/x.F"},
		{"cornet/x.(*T).M.func3.2", "cornet/x.(*T).M"},
		{"cornet/x.F.func2.gowrap1", "cornet/x.F"},
		{"cornet/x.F.deferwrap1", "cornet/x.F"},
		// A method value's wrapper folds into the method.
		{"cornet/x.(*T).M-fm", "cornet/x.(*T).M"},
		{"cornet/x.init.0", "cornet/x.init"},
		{"main.main", "main.main"},
		// A name that merely ends in a digit is not a closure.
		{"cornet/x.Level1", "cornet/x.Level1"},
	} {
		if got := normalize(tc.sym); got != tc.want {
			t.Errorf("normalize(%q) = %q, want %q", tc.sym, got, tc.want)
		}
	}
}

func TestRender(t *testing.T) {
	src := `package p
func F() {}
func (T) ValueRecv() {}
func (t *T) PtrRecv() {}
func (l *List[E]) Push(e E) {}
func (m Map[K, V]) Get(k K) V { var v V; return v }
func init() {}
`
	file, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range file.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			got = append(got, render("cornet/p", fn))
		}
	}
	want := []string{
		"cornet/p.F",
		"cornet/p.T.ValueRecv",
		"cornet/p.(*T).PtrRecv",
		"cornet/p.(*List).Push",
		"cornet/p.Map.Get",
		"cornet/p.init",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("render = %q, want %q", got, want)
	}
}

func TestParseAllow(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		want     map[string]string
		err      string
	}{
		{name: "tags", in: "# header\n\ncornet/a.F # interface: slog.Handler\ncornet/a.G # item 6: the monitor\n" +
			"cornet/a.H # test-seam: fake clock\ncornet/a.(*T).P # public: a route\n",
			want: map[string]string{
				"cornet/a.F": "interface: slog.Handler", "cornet/a.G": "item 6: the monitor",
				"cornet/a.H": "test-seam: fake clock", "cornet/a.(*T).P": "public: a route",
			}},
		{name: "no reason", in: "cornet/a.F\n", err: "line 1"},
		{name: "untagged reason", in: "cornet/a.F # still needed\n", err: "starts with none"},
		{name: "item without number", in: "cornet/a.F # item: later\n", err: "starts with none"},
		{name: "duplicate", in: "cornet/a.F # public: x\ncornet/a.F # public: y\n", err: "listed twice"},
		{name: "two symbols", in: "cornet/a.F cornet/a.G # public: x\n", err: "line 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseAllow(tc.in)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("parseAllow = %v, %v; want %v", got, err, tc.want)
			}
		})
	}
}

func TestCheck(t *testing.T) {
	decls := []decl{{Symbol: "p.Reached"}, {Symbol: "p.Dead"}, {Symbol: "p.Allowed"}, {Symbol: "p.AllowedButReached"}}
	reached := map[string]bool{"p.Reached": true, "p.AllowedButReached": true}
	allow := map[string]string{
		"p.Allowed":           "item 1: x",
		"p.AllowedButReached": "item 1: x",
		"p.Gone":              "item 1: x",
	}
	unreached, stale := check(decls, reached, allow)
	if len(unreached) != 1 || unreached[0].Symbol != "p.Dead" {
		t.Errorf("unreached = %v, want [p.Dead]", unreached)
	}
	if want := []string{"p.AllowedButReached", "p.Gone"}; !reflect.DeepEqual(stale, want) {
		t.Errorf("stale = %v, want %v", stale, want)
	}
}
