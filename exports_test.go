package hermes

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledList is the allow-list of exported functions and methods that
// no non-test code calls: one per line, the qualified name, then why it
// stays. Lines starting with # are comments.
const uncalledList = "testdata/uncalled_exports.txt"

// TestNoUncalledExports lists every exported function and method that no
// non-test code of the module calls, and fails on any that the allow-list
// does not carry with a reason. It also fails on an allow-list entry that
// now has a caller or is gone, so the list only ever holds what is
// uncalled today. bench/ counts as a caller, but its own declarations are
// not listed: the benchmark's files are frozen.
//
// Calls are resolved by the type checker, not by name: each non-test
// package of the module is checked from source, against the export data
// `go list -export` builds for the standard library. A function is called
// when some non-test file refers to it. A method is called when it is
// selected on its own type (a call, a method value or a method
// expression), when its type implements a named interface of the module
// whose method non-test code selects (a call through diskio.FS.Sync
// reaches every FS's Sync), or when its type implements a named interface
// of the standard library that declares it (fmt calls String through
// fmt.Stringer).
func TestNoUncalledExports(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := listModule(t)
	exports := make(map[string]string)
	for _, p := range pkgs {
		exports[p.path] = p.export
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, os.ErrNotExist
		}
		return os.Open(file)
	})
	// The module's packages are checked from source, in the dependency
	// order go list prints, and import one another as checked: one object
	// per module type, so types.Implements can compare a method's
	// signature with an interface's.
	checked := make(map[string]*types.Package)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		return std.Import(path)
	})

	type decl struct {
		qual string
		fn   *types.Func
	}
	var decls []decl
	called := make(map[*types.Func]bool) // every function or method some non-test file refers to
	use := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			called[fn.Origin()] = true
		}
	}
	for _, p := range pkgs {
		if p.standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.goFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.path, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.path, err)
		}
		checked[p.path] = pkg
		for _, obj := range info.Uses {
			use(obj)
		}
		for _, sel := range info.Selections {
			use(sel.Obj())
		}
		if p.path == "hermes/bench" || strings.HasPrefix(p.path, "hermes/bench/") {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				qual := p.path + "." + fd.Name.Name
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					qual = p.path + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				decls = append(decls, decl{qual: qual, fn: info.Defs[fd.Name].(*types.Func)})
			}
		}
	}
	// Every named interface of the standard library, and every method of a
	// named interface of the module, by method name. The standard library
	// calls the methods of its own interfaces (fmt calls String,
	// encoding/gob calls GobEncode), so implementing one is a call; the
	// module's interface methods count only when non-test code calls them.
	stdIfaces := make(map[string][]*types.Interface)
	type ifaceMethod struct {
		iface *types.Interface
		fn    *types.Func
	}
	modIfaces := make(map[string][]ifaceMethod)
	for _, p := range pkgs {
		pkg := checked[p.path]
		if p.standard && p.export != "" {
			var err error
			if pkg, err = std.Import(p.path); err != nil {
				t.Fatal(err)
			}
		}
		if pkg == nil {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams() != nil {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					fn := it.Method(i)
					if p.standard {
						stdIfaces[fn.Name()] = append(stdIfaces[fn.Name()], it)
					} else {
						modIfaces[fn.Name()] = append(modIfaces[fn.Name()], ifaceMethod{it, fn})
					}
				}
			}
		}
	}
	stdIfaces["Error"] = append(stdIfaces["Error"], types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	// viaInterface reports whether method m is reachable through an
	// interface its type, or a pointer to it, implements: any of the
	// standard library's, or one of the module's that non-test code calls
	// the method through.
	viaInterface := func(m *types.Func) bool {
		recv := m.Signature().Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		implements := func(it *types.Interface) bool {
			return types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)
		}
		for _, it := range stdIfaces[m.Name()] {
			if implements(it) {
				return true
			}
		}
		for _, im := range modIfaces[m.Name()] {
			if called[im.fn] && implements(im.iface) {
				return true
			}
		}
		return false
	}

	allowed := readUncalledList(t)
	uncalled := make(map[string]bool)
	for _, d := range decls {
		if called[d.fn] {
			continue
		}
		if d.fn.Signature().Recv() != nil && viaInterface(d.fn) {
			continue
		}
		uncalled[d.qual] = true
		if _, ok := allowed[d.qual]; !ok {
			t.Errorf("%s is exported but nothing outside tests calls it: give it a caller, delete it, or list it in %s with a reason", d.qual, uncalledList)
		}
	}
	var stale []string
	for qual := range allowed {
		if !uncalled[qual] {
			stale = append(stale, qual)
		}
	}
	sort.Strings(stale)
	for _, qual := range stale {
		t.Errorf("%s is listed in %s but has a caller now or is gone: drop its line", qual, uncalledList)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// modulePkg is one package of `go list -deps ./...`: the module's own and
// the standard library's.
type modulePkg struct {
	path     string
	dir      string
	export   string // the compiled export data file, empty for unsafe
	standard bool
	goFiles  []string // non-test source files, relative to dir
}

// listModule lists the module's packages and their dependencies, building
// the export data of each.
func listModule(t *testing.T) []modulePkg {
	t.Helper()
	cmd := exec.Command("go", "list", "-export", "-deps",
		"-f", "{{.ImportPath}}\t{{.Export}}\t{{.Standard}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []modulePkg
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 5 {
			t.Fatalf("go list: unexpected line %q", line)
		}
		pkgs = append(pkgs, modulePkg{path: f[0], export: f[1], standard: f[2] == "true", dir: f[3], goFiles: strings.Fields(f[4])})
	}
	return pkgs
}

// recvName returns the type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// readUncalledList parses the allow-list into qualified name -> reason,
// failing on a line without a reason or a name listed twice.
func readUncalledList(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(uncalledList)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allowed := make(map[string]string)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		qual, reason, _ := strings.Cut(text, " ")
		reason = strings.TrimSpace(reason)
		switch {
		case reason == "":
			t.Errorf("%s:%d: %s has no reason", uncalledList, line, qual)
		case allowed[qual] != "":
			t.Errorf("%s:%d: %s is listed twice", uncalledList, line, qual)
		}
		allowed[qual] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allowed
}
