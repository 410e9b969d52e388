// The module-level pipeline behind cmd/aeropacklint: pattern expansion,
// parse + type-check, fact and summary gathering, parallel rule
// execution and the //lint:allow audit.  The
// driver and BenchmarkLintModule share this entry point.
package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"aeropack/internal/parallel"
)

// ModuleOptions configures one RunModule call.
type ModuleOptions struct {
	// Dir is where the module root search starts (usually ".").
	Dir string
	// Patterns are package directories; a trailing /... expands to the
	// subtree.  Empty means ./...
	Patterns []string
	// Rules restricts the run; nil means every registered rule.
	Rules []Rule
	// Audit switches to the //lint:allow audit: instead of findings, the
	// result reports directives that no longer suppress anything (or
	// carry no reason).
	Audit bool
}

// StaleAllow is one audit report line.
type StaleAllow struct {
	Pos token.Position
	// Rule is the directive rule name this report is about.
	Rule string
	// Why classifies the problem: "stale" (nothing suppressed),
	// "unknown-rule", or "no-reason".
	Why string
}

func (s StaleAllow) String() string {
	switch s.Why {
	case "stale":
		return fmt.Sprintf("%s: stale //lint:allow %s: no %s finding on this or the next line", s.Pos, s.Rule, s.Rule)
	case "unknown-rule":
		return fmt.Sprintf("%s: //lint:allow names unknown rule %q", s.Pos, s.Rule)
	default:
		return fmt.Sprintf("%s: //lint:allow %s has no reason text", s.Pos, s.Rule)
	}
}

// ModuleResult is what RunModule produces.
type ModuleResult struct {
	// Root is the module root directory.
	Root string
	// Findings are the surviving findings, positions module-root-relative.
	Findings []Finding
	// Stale holds the audit reports (Audit mode only).
	Stale []StaleAllow
	// TypeErrors are non-fatal type-checker diagnostics.
	TypeErrors []string
	// Packages is the number of requested packages.
	Packages int
}

// RunModule executes the configured suite and returns the merged,
// sorted result.
func RunModule(opts ModuleOptions) (*ModuleResult, error) {
	if opts.Dir == "" {
		opts.Dir = "."
	}
	loader, err := NewLoader(opts.Dir)
	if err != nil {
		return nil, err
	}
	rules := opts.Rules
	if rules == nil {
		rules = Rules()
	}
	dirs, err := expandPatterns(loader, opts.Dir, opts.Patterns)
	if err != nil {
		return nil, err
	}
	res := &ModuleResult{Root: loader.Root, Packages: len(dirs)}

	// Phase 1: parse and type-check the requested packages; their
	// in-module dependencies load on first import.
	pkgs, err := loader.loadDirs(dirs)
	if err != nil {
		return nil, err
	}

	// Phase 2: gather cross-package facts over everything the loader
	// touched (requested packages and dependencies alike), then attach
	// the store.
	facts := NewFacts()
	loaded := loader.Loaded()
	facts.Gather(loaded)
	for _, p := range loaded {
		p.Facts = facts
	}

	// Phase 3: run rules (or the audit) per package.  The fact store is
	// read-only after Gather, so the rule phase fans out per package; the
	// audit stays sequential (it is the rare administrative path).
	if opts.Audit {
		for _, p := range pkgs {
			res.Stale = append(res.Stale, auditPackage(p, rules)...)
		}
	} else {
		perPkg, err := parallel.Map(pkgs, 0, func(_ int, p *Package) ([]Finding, error) {
			findings := RunRules([]*Package{p}, rules)
			for i := range findings {
				findings[i].Pos = relPosition(loader.Root, findings[i].Pos)
				for j := range findings[i].Related {
					findings[i].Related[j].Pos = relPosition(loader.Root, findings[i].Related[j].Pos)
				}
				if fix := findings[i].Fix; fix != nil {
					for j := range fix.Edits {
						fix.Edits[j].File = relPath(loader.Root, fix.Edits[j].File)
					}
				}
			}
			return findings, nil
		})
		if err != nil {
			return nil, err
		}
		for _, findings := range perPkg {
			res.Findings = append(res.Findings, findings...)
		}
	}
	SortFindings(res.Findings)
	for i := range res.Stale {
		res.Stale[i].Pos = relPosition(loader.Root, res.Stale[i].Pos)
	}
	sort.Slice(res.Stale, func(i, j int) bool {
		a, b := res.Stale[i], res.Stale[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	// Diagnostics arrive in load order; sort them like the findings.
	res.TypeErrors = append([]string(nil), loader.TypeErrors...)
	sort.Strings(res.TypeErrors)
	return res, nil
}

// auditPackage reports the package's //lint:allow directives that are
// stale (no raw finding of the named rule on the directive's line or
// the next), name an unregistered rule, or lack reason text.
func auditPackage(p *Package, rules []Rule) []StaleAllow {
	raw := RunRulesRaw(p, rules)
	// matched[(rule, file, line)] — a raw finding whose position a
	// directive at that line would cover.
	type key struct {
		rule, file string
		line       int
	}
	matched := make(map[key]bool)
	for _, f := range raw {
		matched[key{f.Rule, f.Pos.Filename, f.Pos.Line}] = true
	}
	known := make(map[string]bool, len(rules))
	for _, r := range rules {
		known[r.Name()] = true
	}
	var out []StaleAllow
	for _, d := range p.Directives() {
		pos := d.Pos // absolute here; RunModule relativizes
		for _, rule := range d.Rules {
			if !known[rule] {
				out = append(out, StaleAllow{Pos: pos, Rule: rule, Why: "unknown-rule"})
				continue
			}
			if !matched[key{rule, d.Pos.Filename, d.Pos.Line}] &&
				!matched[key{rule, d.Pos.Filename, d.Pos.Line + 1}] {
				out = append(out, StaleAllow{Pos: pos, Rule: rule, Why: "stale"})
			}
		}
		if d.Reason == "" {
			out = append(out, StaleAllow{Pos: pos, Rule: strings.Join(d.Rules, ","), Why: "no-reason"})
		}
	}
	return out
}

// expandPatterns resolves the CLI package arguments to directories.
func expandPatterns(l *Loader, base string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, arg := range patterns {
		if rest, ok := strings.CutSuffix(arg, "/..."); ok {
			if rest == "" {
				rest = "."
			}
			if !filepath.IsAbs(rest) {
				rest = filepath.Join(base, rest)
			}
			sub, err := l.PackageDirs(rest)
			if err != nil {
				return nil, err
			}
			for _, d := range sub {
				add(d)
			}
			continue
		}
		dir := arg
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(base, dir)
		}
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		if _, err := os.Stat(abs); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", arg, err)
		}
		add(abs)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// relPosition rewrites the position's filename to be root-relative.
func relPosition(root string, pos token.Position) token.Position {
	pos.Filename = relPath(root, pos.Filename)
	return pos
}

// relPath strips the root prefix from a file path.
func relPath(root, path string) string {
	if root == "" {
		return path
	}
	if rest, ok := strings.CutPrefix(path, root+string(os.PathSeparator)); ok {
		return rest
	}
	return path
}
