// Command unreached lists the functions declared under internal/ that
// no binary links, and checks that set against testdata/unreached.txt.
//
// Usage, from the repository root:
//
//	go run ./scripts/unreached
//
// The roots are every main package of the root module (the cmd/
// binaries, the examples and this tool), bench/rlperf built in its
// nested module, and a stub module that takes the value of every
// function and method pinned in testdata/api.txt, so the facade's
// pinned API is the one list of library roots. Each root is built with
// inlining off (-gcflags=all=-l), so a linked function keeps its own
// text symbol, and `go tool nm` reads the symbols back. Every function
// declared in a non-test file under internal/ is named as the linker
// names it (relive/internal/p.F, p.(*T).M, p.T.M); one that no root
// links is unreached. Instantiation brackets (F[go.shape.int],
// (*T[go.shape.int]).M) are stripped from the symbols before matching.
//
// The tool prints one line per unreached function ("file:line  lines
// symbol", in file order; lines run from the func keyword to the
// closing brace), then per-package totals. The list holds one
// "symbol<TAB>reason" line per entry; blank lines and lines starting
// with # are ignored. The tool exits 1, naming the symbol, when an
// unreached function is not listed, when a listed symbol is linked or
// no longer declared, or when an entry outside the exempt packages
// (oracle, gen and genbase, which serve the tests, the experiments and
// rlperf) has no reason. It exits 2 when a build or a read fails.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// exempt names the packages under internal/ whose list entries need no
// reason.
var exempt = map[string]bool{"oracle": true, "gen": true, "genbase": true}

// config says where one scan finds its module, roots and list.
type config struct {
	dir    string // root of the module whose internal/ is scanned
	list   string // the checked-in list of unreached functions
	api    string // the facade pin, whose functions the stub takes; "" for none
	nested []root // main packages of nested modules
}

// root is a main package, built in dir (relative to the module root).
type root struct{ dir, pkg string }

func main() {
	gomod, err := goOutput("", "env", "GOMOD")
	gomod = strings.TrimSpace(gomod)
	if err != nil || gomod == "" || gomod == os.DevNull {
		fmt.Fprintln(os.Stderr, "unreached: run inside the module:", err)
		os.Exit(2)
	}
	dir := filepath.Dir(gomod)
	os.Exit(run(config{
		dir:    dir,
		list:   filepath.Join(dir, "testdata", "unreached.txt"),
		api:    filepath.Join(dir, "testdata", "api.txt"),
		nested: []root{{dir: "bench", pkg: "./rlperf"}},
	}, os.Stdout, os.Stderr))
}

// fn is one function declared under internal/.
type fn struct {
	pos    string // file:line of the func keyword, relative to the module
	lines  int    // func keyword to closing brace
	pkg    string // import path
	symbol string
}

// run scans cfg, prints the unreached functions to stdout and each
// disagreement with the list to stderr, and returns the exit status.
func run(cfg config, stdout, stderr io.Writer) int {
	linked, err := linkedSymbols(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "unreached:", err)
		return 2
	}
	decls, err := declared(cfg.dir)
	if err != nil {
		fmt.Fprintln(stderr, "unreached:", err)
		return 2
	}
	listed, err := readList(cfg.list)
	if err != nil {
		fmt.Fprintln(stderr, "unreached:", err)
		return 2
	}

	var unreached []fn
	isDeclared := map[string]bool{}
	for _, d := range decls {
		isDeclared[d.symbol] = true
		if !linked[d.symbol] {
			unreached = append(unreached, d)
		}
	}
	report(stdout, unreached)

	status := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(stderr, "unreached: "+format+"\n", args...)
		status = 1
	}
	list := filepath.Base(cfg.list)
	for _, d := range unreached {
		if _, ok := listed[d.symbol]; !ok {
			fail("%s (%s) is unreached but not in %s: delete it, move it beside its tests, or list it with a reason", d.symbol, d.pos, list)
		}
	}
	symbols := make([]string, 0, len(listed))
	for s := range listed {
		symbols = append(symbols, s)
	}
	sort.Strings(symbols)
	for _, s := range symbols {
		switch {
		case !isDeclared[s]:
			fail("%s is in %s but no longer declared: remove its entry", s, list)
		case linked[s]:
			fail("%s is in %s but a binary links it now: remove its entry", s, list)
		case listed[s] == "" && !exempt[internalPackage(s)]:
			fail("%s is in %s without a reason", s, list)
		}
	}
	return status
}

// report prints the unreached functions, then the totals per package.
func report(w io.Writer, unreached []fn) {
	type total struct{ funcs, lines int }
	totals := map[string]*total{}
	var all total
	for _, d := range unreached {
		fmt.Fprintf(w, "%s  %d  %s\n", d.pos, d.lines, d.symbol)
		t := totals[d.pkg]
		if t == nil {
			t = &total{}
			totals[d.pkg] = t
		}
		t.funcs++
		t.lines += d.lines
		all.funcs++
		all.lines += d.lines
	}
	pkgs := make([]string, 0, len(totals))
	for p := range totals {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	fmt.Fprintln(w)
	for _, p := range pkgs {
		fmt.Fprintf(w, "%s  %d functions  %d lines\n", p, totals[p].funcs, totals[p].lines)
	}
	fmt.Fprintf(w, "total  %d functions  %d lines\n", all.funcs, all.lines)
}

// internalPackage returns the path of a symbol's package below
// internal/, such as "oracle" for relive/internal/oracle.F.
func internalPackage(symbol string) string {
	_, rest, ok := strings.Cut(symbol, "/internal/")
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	return pkg
}

// readList parses the list into symbol → reason.
func readList(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	listed := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		symbol, reason, _ := strings.Cut(line, "\t")
		if _, dup := listed[symbol]; dup {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", path, i+1, symbol)
		}
		listed[symbol] = strings.TrimSpace(reason)
	}
	return listed, nil
}

// declared parses every non-test Go file under dir/internal and returns
// its functions in file order, named as the linker names them.
func declared(dir string) ([]fn, error) {
	module, err := goOutput(dir, "list", "-m")
	if err != nil {
		return nil, err
	}
	module = strings.TrimSpace(module)
	fset := token.NewFileSet()
	var decls []fn
	err = filepath.WalkDir(filepath.Join(dir, "internal"), func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if e.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		pkg := module + "/" + filepath.ToSlash(filepath.Dir(rel))
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			line := fset.Position(fd.Pos()).Line
			decls = append(decls, fn{
				pos:    fmt.Sprintf("%s:%d", filepath.ToSlash(rel), line),
				lines:  fset.Position(fd.End()).Line - line + 1,
				pkg:    pkg,
				symbol: pkg + "." + funcName(fd),
			})
		}
		return nil
	})
	return decls, err
}

// funcName names a declaration as the linker does below its package:
// F, (*T).M or T.M, with any type parameters of the receiver dropped.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	star := false
	if s, ok := t.(*ast.StarExpr); ok {
		star, t = true, s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	recv := t.(*ast.Ident).Name
	if star {
		return "(*" + recv + ")." + fd.Name.Name
	}
	return recv + "." + fd.Name.Name
}

// linkedSymbols builds every root of cfg into a temporary directory and
// returns the text symbols the binaries hold, brackets stripped.
func linkedSymbols(cfg config) (map[string]bool, error) {
	tmp, err := os.MkdirTemp("", "unreached")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	mains, err := goOutput(cfg.dir, "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...")
	if err != nil {
		return nil, err
	}
	var roots []root
	for _, pkg := range strings.Fields(mains) {
		roots = append(roots, root{pkg: pkg})
	}
	roots = append(roots, cfg.nested...)
	if cfg.api != "" {
		if err := writeStub(cfg, filepath.Join(tmp, "stub")); err != nil {
			return nil, err
		}
		roots = append(roots, root{dir: filepath.Join(tmp, "stub"), pkg: "."})
	}

	linked := map[string]bool{}
	for i, r := range roots {
		// One build per root: two roots may share a base name.
		dir := r.dir
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(cfg.dir, dir)
		}
		bin := filepath.Join(tmp, "bin", fmt.Sprint(i))
		if _, err := goOutput(dir, "build", "-gcflags=all=-l", "-o", bin, r.pkg); err != nil {
			return nil, err
		}
		syms, err := goOutput(dir, "tool", "nm", bin)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(syms, "\n") {
			// "addr type name"; a name may hold spaces.
			f := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				linked[stripBrackets(f[2])] = true
			}
		}
	}
	return linked, nil
}

// stripBrackets removes every bracketed part of a symbol, so an
// instantiation such as p.F[go.shape.int] or p.(*T[go.shape.[]int]).M
// reads p.F or p.(*T).M.
func stripBrackets(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// writeStub writes into dir a main module that requires cfg's module
// through a replace directive and takes the value of every function and
// method line in cfg.api.
func writeStub(cfg config, dir string) error {
	mod, err := goOutput(cfg.dir, "list", "-m", "-f", "{{.Path}} {{.GoVersion}}")
	if err != nil {
		return err
	}
	module, goVersion, _ := strings.Cut(strings.TrimSpace(mod), " ")
	api, err := os.ReadFile(cfg.api)
	if err != nil {
		return err
	}
	var src bytes.Buffer
	fmt.Fprintf(&src, "package main\n\nimport (\n\t\"fmt\"\n\n\tfacade %q\n)\n\nvar roots = []any{\n", module)
	sc := bufio.NewScanner(bytes.NewReader(api))
	for sc.Scan() {
		expr, err := apiExpr(sc.Text())
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.api, err)
		}
		fmt.Fprintf(&src, "\t%s,\n", expr)
	}
	src.WriteString("}\n\nfunc main() { fmt.Println(len(roots)) }\n")
	gomod := fmt.Sprintf("module unreachedstub\n\ngo %s\n\nrequire %s v0.0.0\n\nreplace %s => %s\n", goVersion, module, module, cfg.dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "main.go"), src.Bytes(), 0o644)
}

// apiExpr turns one `go doc` func line into an expression for its
// value: "func F(…" gives facade.F, "func (c *T) M(…" gives
// (*facade.T).M and "func (v T) M(…" gives facade.T.M.
func apiExpr(line string) (string, error) {
	rest, ok := strings.CutPrefix(line, "func ")
	if !ok {
		return "", fmt.Errorf("not a func line: %q", line)
	}
	recv := ""
	if strings.HasPrefix(rest, "(") {
		r, after, ok := strings.Cut(rest[1:], ") ")
		if !ok {
			return "", fmt.Errorf("bad receiver: %q", line)
		}
		f := strings.Fields(r)
		recv, rest = f[len(f)-1], after
	}
	name, _, ok := strings.Cut(rest, "(")
	if !ok || name == "" {
		return "", fmt.Errorf("no name: %q", line)
	}
	switch {
	case recv == "":
		return "facade." + name, nil
	case strings.HasPrefix(recv, "*"):
		return "(*facade." + recv[1:] + ")." + name, nil
	default:
		return "facade." + recv + "." + name, nil
	}
}

// goOutput runs the go command in dir ("" for the current directory)
// and returns its standard output; a failure carries the command's
// standard error.
func goOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return string(out), nil
}
