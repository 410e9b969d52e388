// Machine-applicable fixes.  A rule that can prove the rewrite attaches
// a Fix — an edit list in byte offsets — to its finding, and
// `aeropacklint -fix` applies it in place, gofmt-ing every touched file.  Fixes are deliberately
// rare: only rewrites that preserve semantics byte-for-provable, like
// `err == Sentinel` → `errors.Is(err, Sentinel)` and `x + 273.15` →
// `units.CToK(x)`, qualify.
package lint

import (
	"fmt"
	"go/ast"
	"go/format"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// TextEdit replaces the half-open byte range [Offset, End) of File with
// New.  File is module-root-relative after RunModule (like finding
// positions); an insertion has Offset == End.
type TextEdit struct {
	File   string
	Offset int
	End    int
	New    string
}

// Fix is one machine-applicable rewrite resolving a finding.
type Fix struct {
	// Desc is a one-line description of what the rewrite does.
	Desc string
	// Edits are applied together; they never overlap.
	Edits []TextEdit
}

// ApplyFixes applies every fix in findings to the files under root,
// reformatting each touched file with gofmt.  With dryRun no file is
// written.  Returns the root-relative files that changed (or would
// change), sorted.  Edits whose byte ranges fall outside the current
// file, or that overlap an already-applied edit, are skipped — the
// sources moved under us and a stale rewrite is worse than none.
func ApplyFixes(root string, findings []Finding, dryRun bool) ([]string, error) {
	byFile := make(map[string][]TextEdit)
	for _, f := range findings {
		if f.Fix == nil {
			continue
		}
		for _, e := range f.Fix.Edits {
			byFile[e.File] = append(byFile[e.File], e)
		}
	}
	files := make([]string, 0, len(byFile))
	for file := range byFile {
		files = append(files, file)
	}
	sort.Strings(files)
	var changed []string
	for _, file := range files {
		path := file
		if !filepath.IsAbs(path) {
			path = filepath.Join(root, file)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return changed, fmt.Errorf("lint: applying fixes: %w", err)
		}
		edits := byFile[file]
		// Bottom-up so earlier offsets stay valid.
		sort.Slice(edits, func(i, j int) bool { return edits[i].Offset > edits[j].Offset })
		out := data
		lastStart := len(data) + 1
		applied := 0
		for _, e := range edits {
			if e.Offset < 0 || e.End < e.Offset || e.End > len(data) || e.End > lastStart {
				continue // out of range or overlapping: stale edit
			}
			out = append(out[:e.Offset], append([]byte(e.New), out[e.End:]...)...)
			lastStart = e.Offset
			applied++
		}
		if applied == 0 {
			continue
		}
		formatted, err := format.Source(out)
		if err != nil {
			return changed, fmt.Errorf("lint: fix for %s produced unparsable code: %w", file, err)
		}
		changed = append(changed, file)
		if dryRun {
			continue
		}
		mode := os.FileMode(0o644)
		if st, err := os.Stat(path); err == nil {
			mode = st.Mode().Perm()
		}
		if err := os.WriteFile(path, formatted, mode); err != nil {
			return changed, fmt.Errorf("lint: applying fixes: %w", err)
		}
	}
	return changed, nil
}

// PendingFixes counts findings carrying a machine-applicable fix.
func PendingFixes(findings []Finding) int {
	n := 0
	for _, f := range findings {
		if f.Fix != nil {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------
// Fix builders.

// fixSentinelCompare rewrites `err == Sentinel` → `errors.Is(err,
// Sentinel)` (and != → !errors.Is), adding "errors" to the file's
// grouped import block when missing.  Returns nil when the file has no
// grouped import to extend or the operand order cannot be established.
func (p *Package) fixSentinelCompare(f *ast.File, be *ast.BinaryExpr) *Fix {
	xStr, yStr := types.ExprString(be.X), types.ExprString(be.Y)
	errStr, sentStr := xStr, yStr
	if p.packageLevelErrorVar(be.X) != nil && p.packageLevelErrorVar(be.Y) == nil {
		// errors.Is(err, target): the sentinel is the target.
		errStr, sentStr = yStr, xStr
	}
	neg := ""
	if be.Op == token.NEQ {
		neg = "!"
	}
	start := p.Fset.Position(be.Pos())
	end := p.Fset.Position(be.End())
	if start.Offset <= 0 && start.Line == 0 {
		return nil
	}
	edits := []TextEdit{{
		File:   start.Filename,
		Offset: start.Offset,
		End:    end.Offset,
		New:    neg + "errors.Is(" + errStr + ", " + sentStr + ")",
	}}
	if imp := importInsertion(p, f, "errors"); imp != nil {
		edits = append(edits, *imp)
	} else if !fileImports(f, "errors") {
		return nil // no grouped import block to extend
	}
	return &Fix{Desc: "replace sentinel comparison with errors.Is", Edits: edits}
}

// fixUnitLiteral rewrites `x + 273.15` → `units.CToK(x)` and
// `x - 273.15` → `units.KToC(x)` when the file already imports the
// units package under its default name.  lit must be the 273.15
// literal the finding is about.
func (p *Package) fixUnitLiteral(f *ast.File, lit *ast.BasicLit) *Fix {
	if lit.Value != "273.15" || !fileImportsSuffix(f, "/internal/units") {
		return nil
	}
	be := enclosingBinary(f, lit)
	if be == nil {
		return nil
	}
	var repl string
	switch {
	case be.Op == token.ADD && be.Y == lit:
		repl = "units.CToK(" + types.ExprString(be.X) + ")"
	case be.Op == token.ADD && be.X == lit:
		repl = "units.CToK(" + types.ExprString(be.Y) + ")"
	case be.Op == token.SUB && be.Y == lit:
		repl = "units.KToC(" + types.ExprString(be.X) + ")"
	default:
		return nil
	}
	start := p.Fset.Position(be.Pos())
	end := p.Fset.Position(be.End())
	return &Fix{
		Desc: "replace the ±273.15 arithmetic with the units conversion helper",
		Edits: []TextEdit{{
			File:   start.Filename,
			Offset: start.Offset,
			End:    end.Offset,
			New:    repl,
		}},
	}
}

// enclosingBinary finds the binary expression having lit as a direct
// operand.
func enclosingBinary(f *ast.File, lit *ast.BasicLit) *ast.BinaryExpr {
	var found *ast.BinaryExpr
	ast.Inspect(f, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if be, ok := n.(*ast.BinaryExpr); ok && (be.X == lit || be.Y == lit) {
			found = be
			return false
		}
		return true
	})
	return found
}

// fileImports reports whether f imports the exact path.
func fileImports(f *ast.File, path string) bool {
	for _, imp := range f.Imports {
		if v, err := strconv.Unquote(imp.Path.Value); err == nil && v == path {
			return true
		}
	}
	return false
}

// fileImportsSuffix reports whether f imports a path with the given
// suffix under its default package name (no rename).
func fileImportsSuffix(f *ast.File, suffix string) bool {
	for _, imp := range f.Imports {
		v, err := strconv.Unquote(imp.Path.Value)
		if err != nil || !strings.HasSuffix(v, suffix) {
			continue
		}
		if imp.Name == nil {
			return true
		}
	}
	return false
}

// importInsertion builds the edit adding path to f's first grouped
// import block; nil when the path is already imported or no grouped
// block exists.
func importInsertion(p *Package, f *ast.File, path string) *TextEdit {
	if fileImports(f, path) {
		return nil
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT || !gd.Lparen.IsValid() {
			continue
		}
		pos := p.Fset.Position(gd.Lparen)
		off := pos.Offset + 1 // just past the '('
		return &TextEdit{
			File:   pos.Filename,
			Offset: off,
			End:    off,
			New:    "\n\t" + strconv.Quote(path),
		}
	}
	return nil
}
