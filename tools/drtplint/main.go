// Command drtplint is the repo's domain-specific static analysis suite.
// It enforces invariants the generic toolchain cannot know about:
// simulation determinism, nil-safe telemetry, conflict-vector aliasing,
// mutex guard annotations, metric naming conventions, lock acquisition
// order, goroutine lifecycles, and hot-path allocation discipline. Run with -list for the authoritative
// analyzer inventory; the Makefile and docs defer to that output rather
// than repeating it.
//
// Usage:
//
//	drtplint [-only name[,name]] [-module dir] [-timings] [-json] [-o file] [packages...]
//
// Packages are import paths inside the analyzed module ("./..."-style
// patterns are expanded by make lint). With no arguments it lints every
// package under the module root. -module roots the loader at an explicit
// module directory (the self-lint target points it at tools/drtplint);
// by default the outermost go.mod above the working directory wins.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/rtcl/drtp/tools/drtplint/internal/analysis"
	"github.com/rtcl/drtp/tools/drtplint/internal/checkers"
)

var analyzers = []*analysis.Analyzer{
	checkers.Determinism,
	checkers.NilTracer,
	checkers.CVClone,
	checkers.LockGuard,
	checkers.InstrumentNames,
	checkers.LockOrder,
	checkers.GoroLife,
	checkers.HotAlloc,
}

// finding is one diagnostic in the machine-readable report.
type finding struct {
	Position string `json:"position"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// timing is one analyzer's accumulated wall time across all packages.
type timing struct {
	Analyzer string  `json:"analyzer"`
	Millis   float64 `json:"wall_ms"`
	Packages int     `json:"packages"`
}

// report is the -json output document.
type report struct {
	Module   string    `json:"module"`
	Packages []string  `json:"packages"`
	Findings []finding `json:"findings"`
	Timings  []timing  `json:"timings"`
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	module := flag.String("module", "", "module directory to lint (default: outermost go.mod above cwd)")
	timings := flag.Bool("timings", false, "print per-analyzer wall time to stderr")
	jsonOut := flag.Bool("json", false, "emit a JSON report (findings + timings)")
	outFile := flag.String("o", "", "write the JSON report to this file instead of stdout")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: drtplint [-only name,...] [-module dir] [-timings] [-json [-o file]] [import paths]\n\nanalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-15s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}

	active := analyzers
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		active = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "drtplint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			active = append(active, a)
		}
	}

	var loader *analysis.Loader
	var err error
	if *module != "" {
		loader, err = analysis.NewLoader(*module)
	} else {
		loader, err = analysis.NewLoaderFromCwd()
	}
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
	rep := report{Module: loader.ModulePath, Packages: paths, Findings: []finding{}}
	wall := make(map[string]*timing)
	for _, a := range analyzers {
		wall[a.Name] = &timing{Analyzer: a.Name}
	}
	for _, path := range paths {
		pkg, err := loader.LoadPath(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "drtplint: load %s: %v\n", path, err)
			exit = 1
			continue
		}
		for _, a := range active {
			start := time.Now()
			diags, err := loader.Run(a, pkg)
			t := wall[a.Name]
			t.Millis += float64(time.Since(start).Microseconds()) / 1000
			t.Packages++
			if err != nil {
				fmt.Fprintf(os.Stderr, "drtplint: %s: %s: %v\n", path, a.Name, err)
				exit = 1
				continue
			}
			for _, d := range diags {
				pos := pkg.Fset.Position(d.Pos)
				fmt.Printf("%s: %s: %s\n", pos, a.Name, d.Message)
				rep.Findings = append(rep.Findings, finding{
					Position: pos.String(), Analyzer: a.Name, Message: d.Message,
				})
				exit = 1
			}
		}
	}

	for _, a := range active {
		rep.Timings = append(rep.Timings, *wall[a.Name])
	}
	if *timings {
		fmt.Fprintf(os.Stderr, "drtplint: per-analyzer wall time over %d packages:\n", len(paths))
		for _, t := range rep.Timings {
			fmt.Fprintf(os.Stderr, "  %-15s %8.1f ms\n", t.Analyzer, t.Millis)
		}
	}
	if *jsonOut {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "drtplint: encoding report: %v\n", err)
			os.Exit(2)
		}
		data = append(data, '\n')
		if *outFile != "" {
			if err := os.WriteFile(*outFile, data, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "drtplint: %v\n", err)
				os.Exit(2)
			}
		} else {
			os.Stdout.Write(data)
		}
	}
	os.Exit(exit)
}

// modulePackages walks the module root and returns every import path that
// contains Go files, skipping vendor-ish and tool directories. The tools
// subtree is skipped only when it is a nested module (self-lint roots the
// loader at tools/drtplint, where the walk must descend normally).
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
