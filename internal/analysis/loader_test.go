package analysis

import (
	"path/filepath"
	"testing"
)

func moduleRootForTest(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestLoaderLoadsRealPackages(t *testing.T) {
	l, err := NewLoader(moduleRootForTest(t))
	if err != nil {
		t.Fatal(err)
	}
	if l.ModulePath != "repro" {
		t.Fatalf("module path = %q, want repro", l.ModulePath)
	}
	pkg, err := l.Load("repro/internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types == nil || pkg.Types.Scope().Lookup("Engine") == nil {
		t.Fatal("sim.Engine not found in type-checked package")
	}
	// Memoized: a second load returns the identical package.
	again, err := l.Load("repro/internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	if again != pkg {
		t.Fatal("Load is not memoized")
	}
}

func TestListPackagesCoversModule(t *testing.T) {
	l, err := NewLoader(moduleRootForTest(t))
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.ListPackages()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"repro/internal/analysis":   false,
		"repro/internal/sim":        false,
		"repro/cmd/m3vet":           false,
		"repro/examples/quickstart": false,
	}
	for _, p := range paths {
		if _, ok := want[p]; ok {
			want[p] = true
		}
		if p == "repro" {
			t.Error("module root has no non-test Go files and must not be listed")
		}
	}
	for p, seen := range want {
		if !seen {
			t.Errorf("ListPackages missed %s", p)
		}
	}
}

// TestRepoIsClean is the self-hosting check: the repository at HEAD
// must produce zero diagnostics. If this fails, either fix the flagged
// code or annotate it with a justified //m3vet:allow.
func TestRepoIsClean(t *testing.T) {
	diags, err := Check(moduleRootForTest(t), All(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
