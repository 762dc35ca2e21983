package rvpsim_test

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// module is this repository's module path (go.mod).
const module = "rvpsim"

// serviceTier lists the packages the reproduction path must not pull in:
// the job daemon and its client are an optional way to run the
// simulator, never a dependency of it. Matching is by exact path, so the
// stdlib-only internal/server/shutdown helper that cmd/experiments shares
// stays allowed; a subpackage that imports the daemon still brings the
// daemon itself into the graph and is caught.
var serviceTier = []string{module + "/internal/server", module + "/internal/client"}

// moduleDeps returns every in-module package root imports, directly or
// transitively (root included), mapped to one package that imports it.
// Only production files are read; the standard library is not walked.
func moduleDeps(t *testing.T, root string) map[string]string {
	t.Helper()
	via := map[string]string{root: ""}
	queue := []string{root}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		dir := strings.TrimPrefix(strings.TrimPrefix(path, module), "/")
		pkg, err := build.ImportDir(filepath.FromSlash("./"+dir), 0)
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if imp != module && !strings.HasPrefix(imp, module+"/") {
				continue
			}
			if _, ok := via[imp]; !ok {
				via[imp] = path
				queue = append(queue, imp)
			}
		}
	}
	return via
}

// serviceImports reports the service-tier packages in root's import
// graph, each with the chain that reaches it.
func serviceImports(t *testing.T, root string) []string {
	via := moduleDeps(t, root)
	var found []string
	for _, bad := range serviceTier {
		for path := range via {
			if path != bad {
				continue
			}
			chain := path
			for p := via[path]; p != ""; p = via[p] {
				chain = p + " -> " + chain
			}
			found = append(found, chain)
		}
	}
	return found
}

// TestReproductionPathIndependentOfServiceTier keeps the paper
// reproduction buildable and runnable without the service tier: the
// library, both reproduction commands, the experiment runner and the
// lockstep checker import neither internal/server nor internal/client.
func TestReproductionPathIndependentOfServiceTier(t *testing.T) {
	for _, root := range []string{
		module,
		module + "/cmd/experiments",
		module + "/cmd/rvpsim",
		module + "/internal/exp",
		module + "/internal/lockstep",
	} {
		if found := serviceImports(t, root); len(found) > 0 {
			t.Errorf("%s pulls in the service tier:\n  %s", root, strings.Join(found, "\n  "))
		}
	}

	// The walk must see real edges, or the check above is vacuous: the
	// runner reaches the pipeline, and the client command reaches both
	// service packages.
	if _, ok := moduleDeps(t, module+"/internal/exp")[module+"/internal/pipeline"]; !ok {
		t.Errorf("import walk missed internal/exp -> internal/pipeline")
	}
	if found := serviceImports(t, module+"/cmd/rvpc"); len(found) != len(serviceTier) {
		t.Errorf("import walk found %d service packages behind cmd/rvpc, want %d: %v",
			len(found), len(serviceTier), found)
	}
}

// TestFacadeIsTheOnePublicRunPath keeps the commands and examples on the
// public API: cmd/rvpsim, cmd/rvprofile and every examples/* package
// import no in-module package except the rvpsim facade itself, so the
// facade's Run stays the one way they simulate.
func TestFacadeIsTheOnePublicRunPath(t *testing.T) {
	roots := []string{module + "/cmd/rvpsim", module + "/cmd/rvprofile"}
	dirs, err := filepath.Glob("examples/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		roots = append(roots, module+"/"+filepath.ToSlash(d))
	}
	if len(roots) < 3 {
		t.Fatalf("found no examples packages (roots %v)", roots)
	}
	for _, root := range roots {
		via := moduleDeps(t, root)
		if _, ok := via[module]; !ok {
			t.Errorf("%s does not import the facade; the walk is not seeing it", root)
		}
		// The walk is breadth-first from root, so every direct import
		// is recorded as reached via root itself.
		for path, from := range via {
			if from == root && path != module {
				t.Errorf("%s imports %s directly; use the rvpsim facade", root, path)
			}
		}
	}
}
