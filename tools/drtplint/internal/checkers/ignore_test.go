package checkers

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/rtcl/drtp/tools/drtplint/internal/analysis"
)

// allAnalyzers mirrors the suite main.go registers; the ignore-contract
// tests run every one of them so no analyzer can drift out of the shared
// suppression semantics.
var allAnalyzers = []*analysis.Analyzer{Determinism, LockOrder}

func loadFixture(t *testing.T, name string) (*analysis.Loader, *analysis.Package) {
	t.Helper()
	loader, err := analysis.NewLoader("")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	loader.IncludeTests = true
	dir := filepath.Join("testdata", "src", name)
	loader.Extra = map[string]string{name: dir}
	pkg, err := loader.Load(name, dir)
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	return loader, pkg
}

// TestBareIgnoreIsAFinding runs every analyzer over a fixture whose only
// content is one bare (justification-free) ignore directive per
// analyzer: each run must report exactly that directive.
func TestBareIgnoreIsAFinding(t *testing.T) {
	_, pkg := loadFixture(t, "ignorebare")
	for _, a := range allAnalyzers {
		diags, err := analysis.Run(a, pkg)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if len(diags) != 1 {
			t.Errorf("%s: got %d diagnostics, want exactly the bare-directive finding: %v",
				a.Name, len(diags), diags)
			continue
		}
		want := "bare ignore directive for " + a.Name
		if !strings.Contains(diags[0].Message, want) {
			t.Errorf("%s: diagnostic %q does not contain %q", a.Name, diags[0].Message, want)
		}
	}
}

// TestJustifiedIgnoreSuppressesExactlyOne runs lockorder over a fixture
// with two findings on one line under a single justified directive: one
// finding must be suppressed, the other must survive.
func TestJustifiedIgnoreSuppressesExactlyOne(t *testing.T) {
	_, pkg := loadFixture(t, "ignoreone")
	diags, err := analysis.Run(LockOrder, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1 surviving finding: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "channel receive") {
		t.Errorf("surviving diagnostic %q is not the receive finding", diags[0].Message)
	}
}
