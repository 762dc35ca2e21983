// Package syncvet is an errcheck-style static check scoped to the
// durability and network layers: in the packages that own persistent
// state, a discarded Sync(), SyncDir() or Close() error is a
// correctness bug, not a style nit — a failed fsync means the bytes may
// not be on disk, and ignoring it converts "durable" into "probably
// durable". In the HTTP client package the same bare form on a response
// body (resp.Body.Close()) silently leaks the pooled connection when it
// fails, which under network faults is exactly when it fails.
//
// The check flags a bare call statement like
//
//	f.Sync()
//	f.Close()
//
// whose error result vanishes. Two forms stay allowed, because both are
// visible, deliberate decisions a reviewer can see and challenge:
//
//	_ = f.Close()   // explicit discard (e.g. already on an error path)
//	defer f.Close() // deferred cleanup of a read path
package syncvet

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// methods whose discarded error the check reports.
var watched = map[string]bool{
	"Sync":    true,
	"SyncDir": true,
	"Close":   true,
}

// Check parses every non-test .go file under each dir (non-recursive
// per entry; list subpackages explicitly) and returns one "file:line:
// message" diagnostic per discarded call.
func Check(dirs ...string) ([]string, error) {
	var out []string
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		fset := token.NewFileSet()
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return nil, err
			}
			ast.Inspect(file, func(n ast.Node) bool {
				stmt, ok := n.(*ast.ExprStmt)
				if !ok {
					return true
				}
				call, ok := stmt.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !watched[sel.Sel.Name] {
					return true
				}
				pos := fset.Position(call.Pos())
				out = append(out, fmt.Sprintf("%s:%d: result of %s() is discarded; handle the error or write an explicit `_ =`",
					pos.Filename, pos.Line, sel.Sel.Name))
				return true
			})
		}
	}
	sort.Strings(out)
	return out, nil
}
