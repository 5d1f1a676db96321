package hermes

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledList is the allow-list of exported functions and methods that
// no non-test code names: one per line, the qualified name, then why it
// stays. Lines starting with # are comments.
const uncalledList = "testdata/uncalled_exports.txt"

// TestNoUncalledExports lists every exported function and method that no
// non-test file of the module names anywhere but in its own declaration,
// and fails on any that the allow-list does not carry with a reason. It
// also fails on an allow-list entry that now has a caller or is gone, so
// the list only ever holds what is uncalled today. bench/ counts as a
// caller, but its own declarations are not listed: the benchmark's files
// are frozen.
//
// A name is matched by identifier alone, like a grep: a call through an
// interface, or of a same-named method of another type, counts as a
// caller.
func TestNoUncalledExports(t *testing.T) {
	type decl struct {
		qual string
		name string
	}
	var decls []decl
	uses := make(map[string]int) // identifier -> appearances outside function names
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
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
		declared := make(map[*ast.Ident]bool)
		pkg := "hermes"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		frozen := strings.HasPrefix(path, "bench"+string(filepath.Separator))
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if frozen || !fd.Name.IsExported() {
				continue
			}
			qual := pkg + "." + fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				qual = pkg + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{qual: qual, name: fd.Name.Name})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	allowed := readUncalledList(t)
	uncalled := make(map[string]bool)
	for _, d := range decls {
		if uses[d.name] > 0 {
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
