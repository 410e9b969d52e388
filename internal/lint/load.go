// Module loading and type-checking for the lint framework.
//
// The loader resolves imports with nothing but the standard library:
// packages inside this module are parsed and type-checked recursively
// from source, and standard-library imports are delegated to the
// "source" compiler importer (which also works from source, so no
// pre-built export data is required).
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"aeropack/internal/parallel"
)

// Loader parses and type-checks the packages of one Go module.
type Loader struct {
	// Fset is shared by every file the loader touches.
	Fset *token.FileSet
	// Root is the module root directory (the one holding go.mod).
	Root string
	// ModPath is the module path declared in go.mod.
	ModPath string
	// TypeErrors collects non-fatal type-checker diagnostics.  Lint rules
	// tolerate incomplete type info; the driver surfaces these as
	// warnings so missing info is never silent.
	TypeErrors []string

	std      types.Importer
	cache    map[string]*types.Package
	pkgs     map[string]*Package
	checking map[string]bool

	// mu guards cache, pkgs, checking, TypeErrors and preparsed; it is
	// held only around map/slice accesses, never across a type-check, so
	// LoadDirsParallel can run independent packages concurrently.
	mu        sync.Mutex
	preparsed map[string][]*ast.File
	// stdMu serializes the source importer: srcimporter keeps an
	// unlocked package map internally and is not safe for concurrent use.
	stdMu sync.Mutex
}

// NewLoader locates the module root at or above dir and reads the module
// path from go.mod.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:      fset,
		Root:      root,
		ModPath:   modPath,
		std:       importer.ForCompiler(fset, "source", nil),
		cache:     make(map[string]*types.Package),
		pkgs:      make(map[string]*Package),
		checking:  make(map[string]bool),
		preparsed: make(map[string][]*ast.File),
	}, nil
}

// Import implements types.Importer: module-internal paths are resolved
// from source under Root, everything else is assumed to be standard
// library and handed to the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := l.dirFor(path); ok {
		p, err := l.load(dir, path)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	l.stdMu.Lock()
	defer l.stdMu.Unlock()
	return l.std.Import(path)
}

// dirFor maps a module-internal import path to its directory.
func (l *Loader) dirFor(path string) (string, bool) {
	if path == l.ModPath {
		return l.Root, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModPath+"/"); ok {
		return filepath.Join(l.Root, filepath.FromSlash(rest)), true
	}
	return "", false
}

// importPathFor maps a directory under Root to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module root %s", dir, l.Root)
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// LoadDir parses and type-checks the package in dir (non-test files
// only).  Results are memoized per import path.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path, err := l.importPathFor(abs)
	if err != nil {
		return nil, err
	}
	return l.load(abs, path)
}

func (l *Loader) load(dir, path string) (*Package, error) {
	l.mu.Lock()
	if p, ok := l.pkgs[path]; ok {
		l.mu.Unlock()
		return p, nil
	}
	if l.checking[path] {
		l.mu.Unlock()
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.checking[path] = true
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		delete(l.checking, path)
		l.mu.Unlock()
	}()

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error: func(err error) {
			l.mu.Lock()
			l.TypeErrors = append(l.TypeErrors, err.Error())
			l.mu.Unlock()
		},
	}
	// Check never fully fails here: the error callback above swallows
	// diagnostics so rules get the best partial info available.
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	p := &Package{
		ImportPath: path,
		Dir:        dir,
		Fset:       l.Fset,
		Files:      files,
		Pkg:        tpkg,
		Info:       info,
	}
	l.mu.Lock()
	l.cache[path] = tpkg
	l.pkgs[path] = p
	l.mu.Unlock()
	return p, nil
}

// PreparseParallel parses the sources of every given directory
// concurrently and memoizes the results, so the sequential type-check
// phase finds its ASTs ready.  token.FileSet and parser.ParseFile are
// safe for concurrent use; errors are deferred to the eventual LoadDir.
func (l *Loader) PreparseParallel(dirs []string) {
	var wg sync.WaitGroup
	for _, dir := range dirs {
		l.mu.Lock()
		_, seen := l.preparsed[dir]
		l.mu.Unlock()
		if seen {
			continue
		}
		wg.Add(1)
		go func(dir string) {
			defer wg.Done()
			files, err := l.parseDirUncached(dir)
			if err != nil {
				return // LoadDir will re-parse and surface the error
			}
			l.mu.Lock()
			l.preparsed[dir] = files
			l.mu.Unlock()
		}(dir)
	}
	wg.Wait()
}

// Loaded returns every package the loader has type-checked so far —
// the requested ones plus everything pulled in as a dependency — sorted
// by import path.  Fact gathering runs over this set.
func (l *Loader) Loaded() []*Package {
	out := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out
}

// parseDir returns the directory's parsed sources, consuming a
// PreparseParallel result when one exists.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	l.mu.Lock()
	files, ok := l.preparsed[dir]
	l.mu.Unlock()
	if ok {
		return files, nil
	}
	return l.parseDirUncached(dir)
}

// parseDirUncached parses the non-test .go files of one directory.  When
// a directory holds more than one package name (rare outside testdata),
// the majority package wins and the rest are skipped.
func (l *Loader) parseDirUncached(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	byPkg := make(map[string][]*ast.File)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		byPkg[f.Name.Name] = append(byPkg[f.Name.Name], f)
	}
	var best string
	for name, fs := range byPkg {
		if best == "" || len(fs) > len(byPkg[best]) {
			best = name
		}
	}
	return byPkg[best], nil
}

// PackageDirs walks the subtree at start (inside the module) and returns
// every directory holding non-test Go files, skipping testdata, vendor
// and hidden directories and, as `go list ./...` does, nested modules
// (subdirectories with their own go.mod).
func (l *Loader) PackageDirs(start string) ([]string, error) {
	start, err := filepath.Abs(start)
	if err != nil {
		return nil, err
	}
	var dirs []string
	err = filepath.WalkDir(start, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != start && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if path != start {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		name := d.Name()
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// moduleImports returns dir's module-internal imports as directories,
// from an AST-level scan of its (pre)parsed sources.
func (l *Loader) moduleImports(dir string) ([]string, error) {
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var deps []string
	for _, f := range files {
		for _, imp := range f.Imports {
			ipath, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if depDir, ok := l.dirFor(ipath); ok && depDir != dir && !seen[depDir] {
				seen[depDir] = true
				deps = append(deps, depDir)
			}
		}
	}
	sort.Strings(deps)
	return deps, nil
}

// LoadDirsParallel type-checks the packages of dirs using every core:
// it discovers the module-internal dependency closure from import
// lines, pre-parses it concurrently, then type-checks in topological
// layers — every package of a layer depends only on finished layers,
// so the layer's members check on separate goroutines (standard-library
// imports stay serialized behind the source importer's lock).  A final
// memoized sequential pass returns the requested packages in input
// order and surfaces any load error exactly as LoadDir would have.
func (l *Loader) LoadDirsParallel(dirs []string) ([]*Package, error) {
	abs := make([]string, len(dirs))
	for i, d := range dirs {
		a, err := filepath.Abs(d)
		if err != nil {
			return nil, err
		}
		abs[i] = a
	}

	// Closure discovery in parse waves: each frontier is parsed
	// concurrently, then its imports name the next frontier.
	deps := make(map[string][]string)
	frontier := abs
	for len(frontier) > 0 {
		l.PreparseParallel(frontier)
		var next []string
		for _, dir := range frontier {
			if _, ok := deps[dir]; ok {
				continue
			}
			ds, err := l.moduleImports(dir)
			if err != nil {
				deps[dir] = nil // the sequential pass reports it
				continue
			}
			deps[dir] = ds
			for _, d := range ds {
				if _, ok := deps[d]; !ok {
					next = append(next, d)
				}
			}
		}
		frontier = next
	}

	// Kahn layering over the discovered graph.  Directories are sorted
	// within each layer so the work distribution — and with it the order
	// of any type-checker diagnostics after the suite's sort — is stable.
	all := make([]string, 0, len(deps))
	for d := range deps {
		all = append(all, d)
	}
	sort.Strings(all)
	done := make(map[string]bool, len(all))
	for len(done) < len(all) {
		var layer []string
		for _, dir := range all {
			if done[dir] {
				continue
			}
			ready := true
			for _, d := range deps[dir] {
				if !done[d] {
					ready = false
					break
				}
			}
			if ready {
				layer = append(layer, dir)
			}
		}
		if len(layer) == 0 {
			break // import cycle; the sequential pass reports it
		}
		for _, d := range layer {
			done[d] = true
		}
		parallel.For(len(layer), 0, func(i int) {
			_, _ = l.LoadDir(layer[i]) // errors re-surface below
		})
	}

	// Canonical pass: all hits are memoized, all errors deterministic.
	pkgs := make([]*Package, len(abs))
	for i, dir := range abs {
		p, err := l.LoadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("lint: loading %s: %w", dir, err)
		}
		pkgs[i] = p
	}
	return pkgs, nil
}

// LoadAll loads every package under start ("" means the module root).
func (l *Loader) LoadAll(start string) ([]*Package, error) {
	if start == "" {
		start = l.Root
	}
	dirs, err := l.PackageDirs(start)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := l.LoadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("lint: loading %s: %w", dir, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
