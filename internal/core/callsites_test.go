package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestOneGoldenPass counts the package's job executions where they are
// written: whole jobs run in runGolden (the fault-free one, once) and
// runOne (an experiment's), single ranks in runSolo and replayGolden, and
// nowhere else — a second golden pass would be a third cluster.Run call
// site.  replayGolden is not one: it replays a single rank, fault-free, on
// the golden run's own tape, lazily and once per rank, to trace what that
// rank reads or how it ends; it records nothing the golden run has not and
// takes no snapshot.
func TestOneGoldenPass(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for name, f := range pkgs["core"].Files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == "cluster" && strings.HasPrefix(sel.Sel.Name, "Run") {
							got = append(got, fn.Name.Name+" calls cluster."+sel.Sel.Name)
						}
					}
				}
				return true
			})
		}
	}
	sort.Strings(got)
	want := []string{"replayGolden calls cluster.RunSolo", "runGolden calls cluster.Run", "runOne calls cluster.Run", "runSolo calls cluster.RunSolo"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("job executions in package core:\n%q\nwant\n%q", got, want)
	}
}
