// Command metriccheck fails when the README and the metrics registered in
// code disagree. It walks every non-test .go file under the given roots,
// collects the string-literal metric names passed to the obs registry
// constructors (Counter, CounterVec, Gauge, GaugeVec, GaugeFunc,
// Histogram, HistogramVec), and checks them against the metric tokens that
// appear in the README: a registered metric that no token documents fails,
// and so does an exact README token that no constructor registers (a
// stale name). A README token may end in `*` to document a whole prefix
// (e.g. `cornet_slo_*`); such globs are never stale. It is wired into
// `make metriccheck` and CI so the metrics surface stays documented as it
// grows and shrinks.
//
// Usage: metriccheck [-readme README.md] <root dir>...
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// constructors names the obs registry methods whose first argument is a
// metric name.
var constructors = map[string]bool{
	"Counter": true, "CounterVec": true,
	"Gauge": true, "GaugeVec": true, "GaugeFunc": true,
	"Histogram": true, "HistogramVec": true,
}

// tokenRE matches metric names (and prefix globs) in README prose.
var tokenRE = regexp.MustCompile(`cornet_[a-zA-Z0-9_]+\*?`)

func main() {
	readme := flag.String("readme", "README.md", "markdown file that must mention every metric")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: metriccheck [-readme README.md] <root dir>...")
		os.Exit(2)
	}
	doc, err := os.ReadFile(*readme)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metriccheck: %v\n", err)
		os.Exit(1)
	}
	exact, prefixes := readmeTokens(string(doc))

	metrics := map[string]token.Position{}
	for _, root := range flag.Args() {
		if err := collect(root, metrics); err != nil {
			fmt.Fprintf(os.Stderr, "metriccheck: %v\n", err)
			os.Exit(1)
		}
	}

	var missing, stale []string
	for name := range metrics {
		if !documented(name, exact, prefixes) {
			missing = append(missing, name)
		}
	}
	for tok := range exact {
		if _, ok := metrics[tok]; !ok {
			stale = append(stale, tok)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		p := metrics[name]
		fmt.Fprintf(os.Stderr, "%s:%d: metric %s is not documented in %s\n",
			filepath.ToSlash(p.Filename), p.Line, name, *readme)
	}
	sort.Strings(stale)
	for _, tok := range stale {
		fmt.Fprintf(os.Stderr, "%s: %s names no registered metric\n", *readme, tok)
	}
	if len(missing) > 0 || len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "metriccheck: %d undocumented metric(s), %d stale README name(s)\n", len(missing), len(stale))
		os.Exit(1)
	}
	fmt.Printf("metriccheck: %d metrics, all documented in %s, no stale names\n", len(metrics), *readme)
}

// readmeTokens splits the README's metric mentions into exact names and
// glob prefixes (tokens ending in `*`).
func readmeTokens(doc string) (exact map[string]bool, prefixes []string) {
	exact = map[string]bool{}
	for _, tok := range tokenRE.FindAllString(doc, -1) {
		if strings.HasSuffix(tok, "*") {
			prefixes = append(prefixes, strings.TrimSuffix(tok, "*"))
			continue
		}
		exact[tok] = true
	}
	return exact, prefixes
}

// documented reports whether a metric name is covered by an exact README
// token or a glob prefix.
func documented(name string, exact map[string]bool, prefixes []string) bool {
	if exact[name] {
		return true
	}
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// collect walks root for non-test .go files and records every cornet_*
// string literal passed as the first argument of a registry constructor.
func collect(root string, metrics map[string]token.Position) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !constructors[sel.Sel.Name] {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil || !strings.HasPrefix(name, "cornet_") {
				return true
			}
			if _, seen := metrics[name]; !seen {
				metrics[name] = fset.Position(lit.Pos())
			}
			return true
		})
		return nil
	})
}
