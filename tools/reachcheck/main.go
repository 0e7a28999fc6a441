// Command reachcheck fails when a non-test function in the module is linked
// into no binary. It builds every main package of the module (cmd/*,
// examples/*, tools/* and bench) with inlining off, so no callee disappears
// into its caller, reads each binary's text symbols with `go tool nm`, and
// compares them with every function declared in a non-test file. A function
// that only tests call is dead code: delete it with its tests, or name it in
// the allowlist with the reason it stays.
//
// Every allowlist line is `symbol # reason`, and the reason starts with one
// of the tags in allowTags. An entry whose symbol is reached, or no longer
// declared, fails the check too, so the list cannot rot. Declarations are
// rendered as `importpath.F`, `importpath.T.M` or `importpath.(*T).M`; a
// main package's are matched against its own binary's `main.*` symbols.
//
// Usage, from the module root: go run ./tools/reachcheck
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// allowTags are the reasons an unreached function may stay: a method an
// interface requires, an open ROADMAP item that names a caller, a clock,
// seed or fake injection that tests of retained behaviour need, and a
// function whose removal would change a route's output.
var allowTags = regexp.MustCompile(`^(interface|item [0-9]+|test-seam|public):`)

// closurePart matches one compiler-generated trailing symbol component.
var closurePart = regexp.MustCompile(`^(func|deferwrap|gowrap)?[0-9]+$`)

// decl is one function declaration and where it is.
type decl struct {
	Symbol string
	Pos    token.Position
}

func main() {
	if err := run(os.Stdout, "tools/reachcheck/allow.txt"); err != nil {
		fmt.Fprintf(os.Stderr, "reachcheck: %v\n", err)
		os.Exit(1)
	}
}

// run reports every unreached function missing from the allowlist and every
// stale allowlist entry, and returns an error when there is any.
func run(w io.Writer, allowPath string) error {
	data, err := os.ReadFile(allowPath)
	if err != nil {
		return err
	}
	allow, err := parseAllow(string(data))
	if err != nil {
		return fmt.Errorf("%s: %w", allowPath, err)
	}
	list, err := goCmd("list", "-f", "{{.ImportPath}}\t{{.Name}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "reachcheck-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	wd, _ := os.Getwd()
	var decls []decl
	reached := map[string]bool{}
	roots := 0
	for _, line := range strings.Split(strings.TrimSpace(string(list)), "\n") {
		f := strings.Split(line, "\t") // import path, package name, dir, files
		if len(f) != 4 || f[3] == "" {
			continue // test files only
		}
		ds, err := declare(f[0], f[2], strings.Fields(f[3]), wd)
		if err != nil {
			return err
		}
		decls = append(decls, ds...)
		if f[1] != "main" {
			continue
		}
		roots++
		syms, err := linked(f[0], filepath.Join(tmp, fmt.Sprint(roots)))
		if err != nil {
			return err
		}
		for _, s := range syms {
			reached[s] = true
		}
	}

	unreached, stale := check(decls, reached, allow)
	for _, d := range unreached {
		fmt.Fprintf(w, "%s:%d: %s is linked into no binary\n", d.Pos.Filename, d.Pos.Line, d.Symbol)
	}
	for _, s := range stale {
		fmt.Fprintf(w, "%s: stale entry %s: it is reached or no longer declared\n", allowPath, s)
	}
	if len(unreached)+len(stale) > 0 {
		return fmt.Errorf("%d unreached function(s), %d stale allowlist entr(ies)", len(unreached), len(stale))
	}
	fmt.Fprintf(w, "reachcheck: %d functions, %d roots, %d allowlisted, none unreached\n", len(decls), roots, len(allow))
	return nil
}

// declare parses a package's non-test files and renders every function
// declaration, with file names relative to wd.
func declare(importPath, dir string, files []string, wd string) ([]decl, error) {
	fset := token.NewFileSet()
	var out []decl
	for _, name := range files {
		file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		for _, d := range file.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				pos := fset.Position(fn.Pos())
				pos.Filename = strings.TrimPrefix(pos.Filename, wd+string(filepath.Separator))
				out = append(out, decl{Symbol: render(importPath, fn), Pos: pos})
			}
		}
	}
	return out, nil
}

// render names a declaration the way normalized symbols name it: pkg.F,
// pkg.T.M or pkg.(*T).M, with a generic receiver's type parameters dropped.
func render(importPath string, fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return importPath + "." + fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	star, ptr := t.(*ast.StarExpr)
	if ptr {
		t = star.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	name := "?"
	if id, ok := t.(*ast.Ident); ok {
		name = id.Name
	}
	if ptr {
		name = "(*" + name + ")"
	}
	return importPath + "." + name + "." + fn.Name.Name
}

// linked builds the main package importPath into out with inlining off and
// returns its normalized text symbols, with the binary's main.* symbols
// renamed to importPath.
func linked(importPath, out string) ([]string, error) {
	if _, err := goCmd("build", "-gcflags=all=-l", "-o", out, importPath); err != nil {
		return nil, err
	}
	nm, err := goCmd("tool", "nm", out)
	if err != nil {
		return nil, err
	}
	var syms []string
	for _, line := range strings.Split(string(nm), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		s := normalize(strings.Join(f[2:], " "))
		if rest, ok := strings.CutPrefix(s, "main."); ok {
			s = importPath + "." + rest
		}
		syms = append(syms, s)
	}
	return syms, nil
}

// normalize maps a linker symbol onto the declaration it was compiled
// from: type arguments are stripped, closures (.funcN and their nested
// .N), go/defer wrappers and method-value wrappers (-fm) fold into their
// parent, and init.N folds into init.
func normalize(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := strings.TrimSuffix(b.String(), "-fm")
	for {
		i := strings.LastIndexByte(s, '.')
		if i < 0 || !closurePart.MatchString(s[i+1:]) {
			return s
		}
		s = s[:i]
	}
}

// parseAllow reads `symbol # reason` lines; blank lines and lines starting
// with # are skipped. Every entry needs a reason starting with a tag from
// allowTags, and no symbol may be listed twice.
func parseAllow(data string) (map[string]string, error) {
	allow := map[string]string{}
	for n, line := range strings.Split(data, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, ok := strings.Cut(line, "#")
		sym, reason = strings.TrimSpace(sym), strings.TrimSpace(reason)
		switch {
		case !ok || sym == "" || strings.ContainsAny(sym, " \t"):
			return nil, fmt.Errorf("line %d: want `symbol # reason`", n+1)
		case !allowTags.MatchString(reason):
			return nil, fmt.Errorf("line %d: reason %q starts with none of interface:, item N:, test-seam:, public:", n+1, reason)
		case allow[sym] != "":
			return nil, fmt.Errorf("line %d: %s listed twice", n+1, sym)
		}
		allow[sym] = reason
	}
	return allow, nil
}

// check returns the declarations no binary reaches that the allowlist does
// not cover, and the allowlist entries that are reached or not declared,
// both sorted.
func check(decls []decl, reached map[string]bool, allow map[string]string) (unreached []decl, stale []string) {
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.Symbol] = true
		if _, ok := allow[d.Symbol]; !ok && !reached[d.Symbol] {
			unreached = append(unreached, d)
		}
	}
	for sym := range allow {
		if !declared[sym] || reached[sym] {
			stale = append(stale, sym)
		}
	}
	sort.Slice(unreached, func(i, j int) bool { return unreached[i].Symbol < unreached[j].Symbol })
	sort.Strings(stale)
	return unreached, stale
}

// goCmd runs the go command and returns its stdout, or an error carrying
// its stderr.
func goCmd(args ...string) ([]byte, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out, nil
}
