package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// TypeErrors holds soft type-check errors (analysis proceeds anyway).
	TypeErrors []error
}

// Loader parses and type-checks packages without invoking the go command
// for the analyzed module: module-internal import paths are mapped onto
// directories below ModuleDir, fixture paths onto Extra entries, and
// everything else (the standard library) is delegated to the compiler's
// source importer. That keeps drtplint hermetic — it works offline, with
// an empty module cache, from any working directory.
type Loader struct {
	// ModulePath/ModuleDir anchor module-internal import resolution.
	ModulePath string
	ModuleDir  string
	// Extra maps additional import paths to directories (fixture trees).
	Extra map[string]string
	// IncludeTests includes in-package _test.go files of loaded targets.
	IncludeTests bool

	Fset  *token.FileSet
	cache map[string]*types.Package
	std   types.ImporterFrom
	ctx   build.Context
}

// NewLoader creates a loader rooted at the module in dir (its go.mod names
// the module path; dir may be "" for fixture-only loaders).
func NewLoader(dir string) (*Loader, error) {
	l := &Loader{
		ModuleDir: dir,
		Fset:      token.NewFileSet(),
		cache:     make(map[string]*types.Package),
		ctx:       build.Default,
	}
	l.ctx.CgoEnabled = false
	l.std = importer.ForCompiler(l.Fset, "source", nil).(types.ImporterFrom)
	if dir != "" {
		mod, err := modulePath(filepath.Join(dir, "go.mod"))
		if err != nil {
			return nil, err
		}
		l.ModulePath = mod
	}
	return l, nil
}

// NewLoaderFromCwd walks upward from the working directory to the nearest
// go.mod and roots a loader there. When run from tools/drtplint itself the
// walk continues past it to the outer module: drtplint lints the main
// module, never its own source.
func NewLoaderFromCwd() (*Loader, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	var candidates []string
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			candidates = append(candidates, d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			break
		}
		d = parent
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("drtplint: no go.mod found above %s", dir)
	}
	// Outermost module wins: the repo root, not the tool's own module.
	return NewLoader(candidates[len(candidates)-1])
}

// LoadPath loads an import path resolvable by this loader (module-internal
// or an Extra fixture path).
func (l *Loader) LoadPath(path string) (*Package, error) {
	dir := l.dirFor(path)
	if dir == "" {
		return nil, fmt.Errorf("drtplint: import path %s is outside the module", path)
	}
	return l.Load(path, dir)
}

// modulePath extracts the module path from a go.mod file.
func modulePath(file string) (string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("drtplint: no module directive in %s", file)
}

// dirFor resolves an import path to a source directory, or "" when the
// path is not module-internal (and not a fixture path).
func (l *Loader) dirFor(path string) string {
	if d, ok := l.Extra[path]; ok {
		return d
	}
	if l.ModulePath == "" {
		return ""
	}
	if path == l.ModulePath {
		return l.ModuleDir
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleDir, filepath.FromSlash(rest))
	}
	return ""
}

// Import implements types.Importer for the recursive type-check of
// module-internal dependencies.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	if dir := l.dirFor(path); dir != "" {
		pkg, _, err := l.check(path, dir, false, nil)
		if err != nil {
			return nil, err
		}
		return pkg, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// sourceFiles lists the package's buildable .go files in dir.
func (l *Loader) sourceFiles(dir string, includeTests bool) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := l.ctx.MatchFile(dir, name)
		if err != nil || !ok {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("drtplint: no buildable Go files in %s", dir)
	}
	return files, nil
}

// check parses and type-checks the package in dir. Syntax files and full
// type info are kept only when wantInfo is non-nil.
func (l *Loader) check(path, dir string, includeTests bool, wantInfo *types.Info) (*types.Package, []*ast.File, error) {
	names, err := l.sourceFiles(dir, includeTests)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	files = packageFiles(files)
	var softErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { softErrs = append(softErrs, err) },
	}
	pkg, err := conf.Check(path, l.Fset, files, wantInfo)
	if pkg == nil {
		return nil, nil, fmt.Errorf("drtplint: type-checking %s: %v", path, err)
	}
	l.cache[path] = pkg
	_ = softErrs
	return pkg, files, nil
}

// Load parses and type-checks the package in dir as an analysis target.
func (l *Loader) Load(path, dir string) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var softErrs []error
	names, err := l.sourceFiles(dir, l.IncludeTests)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	files = packageFiles(files)
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { softErrs = append(softErrs, err) },
	}
	pkg, _ := conf.Check(path, l.Fset, files, info)
	if pkg == nil {
		return nil, fmt.Errorf("drtplint: cannot type-check %s", path)
	}
	// A fresh Load of an already-imported path must not poison the import
	// cache with a tests-included variant; only cache when absent.
	if _, ok := l.cache[path]; !ok {
		l.cache[path] = pkg
	}
	return &Package{
		Path: path, Dir: dir, Fset: l.Fset, Files: files,
		Pkg: pkg, Info: info, TypeErrors: softErrs,
	}, nil
}

// Run applies the analyzer to the package and returns its diagnostics,
// with ignore directives already filtered out.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer: a, Path: pkg.Path, Fset: pkg.Fset, Files: pkg.Files,
		Pkg: pkg.Pkg, TypesInfo: pkg.Info,
	}
	if err := a.Run(pass); err != nil {
		return nil, err
	}
	sup := CollectSuppressions(pkg.Fset, pkg.Files)
	diags := sup.Filter(pkg.Fset, a.Name, pass.Diagnostics())
	// A directive without a justification is a finding in its own right.
	diags = append(diags, sup.BareDirectives(a.Name)...)
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// packageFiles keeps the files of the package proper: in-package test
// files share its package clause, and an external test package (package
// foo_test) is out of scope for analysis. The package's name is read off
// a file that is not a test, whichever file sorts first.
func packageFiles(files []*ast.File) []*ast.File {
	name := ""
	for _, f := range files {
		if name == "" || !strings.HasSuffix(f.Name.Name, "_test") {
			name = f.Name.Name
		}
		if !strings.HasSuffix(name, "_test") {
			break
		}
	}
	out := files[:0]
	for _, f := range files {
		if f.Name.Name == name {
			out = append(out, f)
		}
	}
	return out
}
