package bench

import (
	"go/build"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// dataplane is the packet-level stack, lowest layer first: each package
// may import only the ones before it.
var dataplane = []string{"eventq", "simnet", "core", "transport", "experiments", "chaos"}

// above reports whether dep sits higher in the dataplane chain than pkg.
func above(dep, pkg string) bool {
	return slices.Index(dataplane, dep) > slices.Index(dataplane, pkg)
}

// layerRules is the layering table. Each rule constrains the named
// packages; allowed judges one in-module package they reach. A deep rule
// applies to everything reached through non-test imports, a shallow one
// to direct imports only.
var layerRules = []struct {
	rule    string
	pkgs    []string
	deep    bool
	allowed func(pkg, dep string) bool
}{
	{"leaves import no internal package",
		[]string{"simtime", "seqnum", "lgmodel", "stats", "parallel"}, false,
		func(pkg, dep string) bool { return false }},
	{"dataplane imports point only down eventq <- simnet <- core <- transport <- experiments <- chaos",
		dataplane, false,
		func(pkg, dep string) bool { return !slices.Contains(dataplane, dep) || above(pkg, dep) }},
	{"live never imports experiments or chaos",
		[]string{"live"}, true,
		func(pkg, dep string) bool { return dep != "experiments" && dep != "chaos" }},
	{"obs imports nothing above simnet",
		[]string{"obs"}, true,
		func(pkg, dep string) bool { return !above(dep, "simnet") }},
	{"results imports only obs",
		[]string{"results"}, false,
		func(pkg, dep string) bool { return dep == "obs" }},
	{"the fleet side reaches nothing of the dataplane, the live stack or the metrics registry",
		[]string{"fleetsim", "failtrace", "wharf"}, true,
		func(pkg, dep string) bool {
			return !slices.Contains(dataplane, dep) && dep != "live" && dep != "obs"
		}},
}

// TestLayering walks every internal package with go/build and holds the
// import graph to layerRules.
func TestLayering(t *testing.T) {
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	imports := map[string][]string{} // package -> direct internal imports
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		bp, err := build.ImportDir(filepath.Join("internal", e.Name()), 0)
		if err != nil {
			t.Fatalf("internal/%s: %v", e.Name(), err)
		}
		var deps []string
		for _, imp := range bp.Imports {
			if dep, ok := strings.CutPrefix(imp, "linkguardian/internal/"); ok {
				deps = append(deps, dep)
			}
		}
		imports[e.Name()] = deps
	}
	reach := func(pkg string) []string {
		seen := map[string]bool{}
		var out []string
		var walk func(string)
		walk = func(p string) {
			for _, dep := range imports[p] {
				if !seen[dep] {
					seen[dep] = true
					out = append(out, dep)
					walk(dep)
				}
			}
		}
		walk(pkg)
		return out
	}
	for _, r := range layerRules {
		for _, pkg := range r.pkgs {
			deps, ok := imports[pkg]
			if !ok {
				t.Errorf("%s: no package internal/%s; update the table", r.rule, pkg)
				continue
			}
			if r.deep {
				deps = reach(pkg)
			}
			for _, dep := range deps {
				if !r.allowed(pkg, dep) {
					t.Errorf("%s: internal/%s reaches internal/%s", r.rule, pkg, dep)
				}
			}
		}
	}
}
