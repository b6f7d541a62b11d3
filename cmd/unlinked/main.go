// Command unlinked holds the module's non-test functions that no binary
// links to cmd/unlinked/allowlist.txt.  Run it from the module root.
//
// It builds every main package, the bench module and a stub main whose
// package-level sink references every exported func, method and var of the
// root package, with inlining off (-gcflags=all=-l) so no function hides in
// its callers; a func declared in a non-test file whose symbol is in none
// of their `go tool nm` text symbols is unlinked.  It fails when an
// unlinked function is not allowlisted, when an allowlisted one is linked
// again or gone, or when an entry ("symbol reason...") has no reason.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	root := must(os.Getwd())
	mod := strings.Fields(string(must(os.ReadFile(filepath.Join(root, "go.mod")))))[1]
	tmp := must(os.MkdirTemp("", "unlinked"))

	decls, api := declared(root, mod)
	linked := map[string]bool{}
	mains := strings.Fields(run(root, "go", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./..."))
	bin := filepath.Join(tmp, "bin") + string(filepath.Separator)
	run(root, "go", append([]string{"build", "-gcflags=all=-l", "-o", bin}, mains...)...)
	for _, p := range mains {
		symbols(filepath.Join(bin, path.Base(p)), p, linked)
	}
	run(filepath.Join(root, "bench"), "go", "build", "-gcflags=all=-l", "-o", bin+"bench", ".")
	symbols(bin+"bench", mod+"/bench", linked)
	// The sink is a package-level var that main reads: the linker keeps
	// what it points at, where a blank `_ = f` is compiled away.
	stub := fmt.Sprintf("package main\n\nimport x %q\n\nvar sink = []any{\n\t%s,\n}\n\nfunc main() { println(len(sink)) }\n",
		mod, strings.Join(api, ",\n\t"))
	gomod := fmt.Sprintf("module unlinkedstub\n\ngo 1.23\n\nrequire %s v0.0.0\n\nreplace %s => %s\n", mod, mod, root)
	check(os.WriteFile(filepath.Join(tmp, "go.mod"), []byte(gomod), 0o644))
	check(os.WriteFile(filepath.Join(tmp, "main.go"), []byte(stub), 0o644))
	run(tmp, "go", "build", "-gcflags=all=-l", "-o", bin+"stub", ".")
	symbols(bin+"stub", "unlinkedstub", linked)
	check(os.RemoveAll(tmp))

	allow, bad := map[string]bool{}, []string(nil)
	for _, line := range strings.Split(string(must(os.ReadFile(filepath.Join(root, "cmd", "unlinked", "allowlist.txt")))), "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if allow[sym] = true; strings.TrimSpace(reason) == "" {
			bad = append(bad, "allowlist entry without a reason: "+sym)
		}
	}
	unlinked, lines := 0, 0
	for sym, n := range decls {
		if !linked[sym] {
			unlinked, lines = unlinked+1, lines+n
			if !allow[sym] {
				bad = append(bad, "unlinked and not allowlisted: "+sym)
			}
		}
	}
	for sym := range allow {
		if _, ok := decls[sym]; !ok {
			bad = append(bad, "allowlisted but no longer declared: "+sym)
		} else if linked[sym] {
			bad = append(bad, "allowlisted but linked again: "+sym)
		}
	}
	sort.Strings(bad)
	fmt.Printf("unlinked: %d functions (%d lines), %d allowlisted\n", unlinked, lines, len(allow))
	if len(bad) > 0 {
		fmt.Println(strings.Join(bad, "\n"))
		os.Exit(1)
	}
}

// declared maps every func declared in a non-test file of module mod to
// its line count, keyed by its nm symbol, and lists the root package's
// exported funcs, methods and vars as expressions for the stub.
func declared(root, mod string) (map[string]int, []string) {
	decls, api := map[string]int{}, []string(nil)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name, dir := d.Name(), filepath.Dir(p)
		if d.IsDir() {
			if _, e := os.Stat(filepath.Join(p, "go.mod")); p != root && (e == nil || name == "testdata" || strings.ContainsAny(name[:1], "._")) {
				return filepath.SkipDir // another module, test data or tool output
			}
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok || strings.HasSuffix(name, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		pkg := path.Join(mod, filepath.ToSlash(rel))
		for _, decl := range f.Decls {
			if g, ok := decl.(*ast.GenDecl); ok && pkg == mod && g.Tok == token.VAR {
				for _, s := range g.Specs {
					for _, id := range s.(*ast.ValueSpec).Names {
						if id.IsExported() {
							api = append(api, "x."+id.Name)
						}
					}
				}
			}
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" || (f.Name.Name == "main" && fd.Name.Name == "main") {
				continue
			}
			sym, expr := fd.Name.Name, "x."+fd.Name.Name
			if fd.Recv != nil {
				t := fd.Recv.List[0].Type
				s, ptr := t.(*ast.StarExpr)
				if ptr {
					t = s.X
				}
				if ix, ok := t.(*ast.IndexExpr); ok { // type parameters, which nm omits here
					t = ix.X
				} else if ix, ok := t.(*ast.IndexListExpr); ok {
					t = ix.X
				}
				recv, m := t.(*ast.Ident).Name, fd.Name.Name
				sym, expr = recv+"."+m, "x."+recv+"."+m
				if ptr {
					sym, expr = "(*"+recv+")."+m, "(*x."+recv+")."+m
				}
				if !ast.IsExported(recv) {
					expr = ""
				}
			}
			decls[pkg+"."+sym] = fset.Position(fd.End()).Line - fset.Position(fd.Pos()).Line + 1
			if pkg == mod && fd.Name.IsExported() && expr != "" && fd.Type.TypeParams == nil {
				api = append(api, expr)
			}
		}
		return nil
	})
	check(err)
	return decls, api
}

// typeArgs matches an innermost [...] of an instantiated generic's symbol.
var typeArgs = regexp.MustCompile(`\[[^][]*\]`)

// symbols adds the text symbols of binary bin to set, naming its package
// main by its import path pkg and dropping type arguments.
func symbols(bin, pkg string, set map[string]bool) {
	for _, line := range strings.Split(run("", "go", "tool", "nm", bin), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		name := strings.Join(f[2:], " ")
		for typeArgs.MatchString(name) {
			name = typeArgs.ReplaceAllString(name, "")
		}
		if strings.HasPrefix(name, "main.") {
			name = pkg + name[len("main"):]
		}
		set[name] = true
	}
}

func run(dir, name string, args ...string) string {
	cmd := exec.Command(name, args...)
	cmd.Dir, cmd.Stderr, cmd.Env = dir, os.Stderr, append(os.Environ(), "GOWORK=off")
	out, err := cmd.Output()
	if err != nil {
		check(fmt.Errorf("%s %s: %w", name, args[0], err))
	}
	return string(out)
}

func must[T any](v T, err error) T { check(err); return v }

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "unlinked:", err)
		os.Exit(2)
	}
}
