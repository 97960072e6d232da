package fleetsim

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

const module = "linkguardian"

// moduleDeps returns the in-module packages pkg reaches through its
// non-test imports, pkg included.
func moduleDeps(t *testing.T, pkg string) map[string]bool {
	t.Helper()
	deps := map[string]bool{}
	var walk func(string)
	walk = func(p string) {
		if deps[p] {
			return
		}
		deps[p] = true
		dir := filepath.Join("..", "..", filepath.FromSlash(strings.TrimPrefix(p, module+"/")))
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		for _, imp := range bp.Imports {
			if strings.HasPrefix(imp, module+"/") {
				walk(imp)
			}
		}
	}
	walk(pkg)
	return deps
}

// TestFleetSideLinksNoDataplane pins the layering: the fleet simulator
// never links the packet-level simulator, the live dataplane or the
// metrics registry, and the LinkGuardian formulas it shares with the
// dataplane live in a leaf that imports nothing from this module.
func TestFleetSideLinksNoDataplane(t *testing.T) {
	deps := moduleDeps(t, module+"/internal/fleetsim")
	for _, banned := range []string{"simnet", "eventq", "core", "obs", "live", "transport"} {
		if deps[module+"/internal/"+banned] {
			t.Errorf("internal/fleetsim reaches internal/%s", banned)
		}
	}
	if !deps[module+"/internal/lgmodel"] {
		t.Error("internal/fleetsim no longer uses internal/lgmodel: update this test")
	}
	if leaf := moduleDeps(t, module+"/internal/lgmodel"); len(leaf) != 1 {
		t.Errorf("internal/lgmodel must import nothing from %s, reaches %v", module, leaf)
	}
}
