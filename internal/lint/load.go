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
	"strings"
)

// Loader parses and type-checks the packages of one Go module.  It is
// not safe for concurrent use.
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
	pkgs     map[string]*Package
	checking map[string]bool
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
		Fset:     fset,
		Root:     root,
		ModPath:  modPath,
		std:      importer.ForCompiler(fset, "source", nil),
		pkgs:     make(map[string]*Package),
		checking: make(map[string]bool),
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
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

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
			l.TypeErrors = append(l.TypeErrors, err.Error())
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
	l.pkgs[path] = p
	return p, nil
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

// parseDir parses the non-test .go files of one directory.  When
// a directory holds more than one package name (rare outside testdata),
// the majority package wins and the rest are skipped.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
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

// LoadAll loads every package under start ("" means the module root).
func (l *Loader) LoadAll(start string) ([]*Package, error) {
	if start == "" {
		start = l.Root
	}
	dirs, err := l.PackageDirs(start)
	if err != nil {
		return nil, err
	}
	return l.loadDirs(dirs)
}

// loadDirs loads the package of each directory, in order.  In-module
// imports load recursively on first use, so Loaded then holds the whole
// import closure.
func (l *Loader) loadDirs(dirs []string) ([]*Package, error) {
	pkgs := make([]*Package, len(dirs))
	for i, dir := range dirs {
		p, err := l.LoadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("lint: loading %s: %w", dir, err)
		}
		pkgs[i] = p
	}
	return pkgs, nil
}
