// Command drtplint is the repo's domain-specific static analysis suite.
// It enforces the two invariants the generic toolchain cannot know about
// and that have caught real defects here: simulation determinism (no wall
// clock, global math/rand or map-order leak in the packages behind the
// bit-identical figures) and lock discipline (guarded-by fields touched
// only under their mutex, an acyclic lock-acquisition order, no blocking
// or double-locking in a critical section).
//
// Usage:
//
//	drtplint [packages...]
//
// Packages are import paths inside the analyzed module, the outermost
// go.mod above the working directory. With no arguments it lints every
// package under the module root. Findings print one per line; the exit
// status is 1 when there is any.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/rtcl/drtp/tools/drtplint/internal/analysis"
	"github.com/rtcl/drtp/tools/drtplint/internal/checkers"
)

var analyzers = []*analysis.Analyzer{checkers.Determinism, checkers.LockOrder}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: drtplint [import paths]\n\nanalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	loader, err := analysis.NewLoaderFromCwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "drtplint: %v\n", err)
		os.Exit(2)
	}
	loader.IncludeTests = true

	paths := flag.Args()
	if len(paths) == 0 {
		paths, err = modulePackages(loader)
		if err != nil {
			fmt.Fprintf(os.Stderr, "drtplint: %v\n", err)
			os.Exit(2)
		}
	}

	exit := 0
	for _, path := range paths {
		pkg, err := loader.LoadPath(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "drtplint: load %s: %v\n", path, err)
			exit = 1
			continue
		}
		for _, a := range analyzers {
			diags, err := analysis.Run(a, pkg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "drtplint: %s: %s: %v\n", path, a.Name, err)
				exit = 1
				continue
			}
			for _, d := range diags {
				fmt.Printf("%s: %s: %s\n", pkg.Fset.Position(d.Pos), a.Name, d.Message)
				exit = 1
			}
		}
	}
	os.Exit(exit)
}

// modulePackages walks the module root and returns every import path that
// contains Go files, skipping vendor-ish directories and nested modules
// (tools/drtplint is one).
func modulePackages(l *analysis.Loader) ([]string, error) {
	var out []string
	err := filepath.WalkDir(l.ModuleDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleDir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		// A nested go.mod starts a different module; stay out of it.
		if path != l.ModuleDir {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				rel, err := filepath.Rel(l.ModuleDir, path)
				if err != nil {
					return err
				}
				if rel == "." {
					out = append(out, l.ModulePath)
				} else {
					out = append(out, l.ModulePath+"/"+filepath.ToSlash(rel))
				}
				break
			}
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}
