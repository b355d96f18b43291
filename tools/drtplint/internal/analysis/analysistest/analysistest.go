// Package analysistest runs an analyzer over fixture packages under a
// testdata/src tree and checks its diagnostics against // want comments,
// mirroring golang.org/x/tools/go/analysis/analysistest.
//
// A fixture line expecting a diagnostic carries a comment of the form
//
//	code() // want "regexp" "another regexp"
//
// Every diagnostic reported on that line must match one of the patterns,
// and every pattern must be matched by some diagnostic on that line.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/rtcl/drtp/tools/drtplint/internal/analysis"
)

// wantRE extracts the quoted patterns of a // want comment.
var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// patRE extracts each "..." pattern from a want payload.
var patRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type expectation struct {
	rx      *regexp.Regexp
	matched bool
}

// Run loads each fixture package below testdata/src, applies the analyzer
// and compares diagnostics with the fixtures' want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	src := filepath.Join(testdata, "src")
	loader, err := analysis.NewLoader("")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	loader.IncludeTests = true
	loader.Extra = fixtureMap(t, src)

	for _, path := range pkgPaths {
		dir, ok := loader.Extra[path]
		if !ok {
			t.Errorf("fixture package %q not found under %s", path, src)
			continue
		}
		pkg, err := loader.Load(path, dir)
		if err != nil {
			t.Errorf("load %s: %v", path, err)
			continue
		}
		if strings.HasSuffix(pkg.Pkg.Name(), "_test") {
			t.Errorf("load %s: got its external test package %s, whose files are out of scope", path, pkg.Pkg.Name())
			continue
		}
		diags, err := analysis.Run(a, pkg)
		if err != nil {
			t.Errorf("run %s on %s: %v", a.Name, path, err)
			continue
		}
		checkWants(t, pkg, a.Name, diags)
	}
}

// fixtureMap indexes every package directory below src by its relative
// slash path.
func fixtureMap(t *testing.T, src string) map[string]string {
	t.Helper()
	m := make(map[string]string)
	err := filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				rel, err := filepath.Rel(src, p)
				if err != nil {
					return err
				}
				m[filepath.ToSlash(rel)] = p
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk %s: %v", src, err)
	}
	return m
}

// checkWants verifies diagnostics against the fixture's want comments.
func checkWants(t *testing.T, pkg *analysis.Package, name string, diags []analysis.Diagnostic) {
	t.Helper()
	// key: file:line
	wants := make(map[string][]*expectation)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, pm := range patRE.FindAllStringSubmatch(m[1], -1) {
					pat := strings.ReplaceAll(pm[1], `\"`, `"`)
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad want pattern %q: %v", key, pat, err)
						continue
					}
					wants[key] = append(wants[key], &expectation{rx: rx})
				}
			}
		}
	}

	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.rx.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", key, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no diagnostic matching %q", key, w.rx)
			}
		}
	}
}
