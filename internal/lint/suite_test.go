package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTempModule lays out a throwaway module so suite tests can mutate
// sources without touching the real tree.  files maps module-relative
// paths to contents; a go.mod for module tmpmod is added automatically.
func writeTempModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// writeFile overwrites one module-relative file of a temp module.
func writeFile(t *testing.T, root, rel, src string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(root, filepath.FromSlash(rel)), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRunModuleCache checks that re-running after a source edit reports
// the edited package's new findings: every run lints from the sources as
// they are now, with module-root-relative positions.
func TestRunModuleCache(t *testing.T) {
	root := writeTempModule(t, map[string]string{
		"pkg/pkg.go": "package pkg\n\n// Offset trips unitsafety.\nfunc Offset(c float64) float64 { return c + 273.15 }\n",
	})
	opts := ModuleOptions{Dir: root, Patterns: []string{"./..."}}

	before, err := RunModule(opts)
	if err != nil {
		t.Fatal(err)
	}
	if before.Packages != 1 {
		t.Errorf("Packages = %d, want 1", before.Packages)
	}
	if len(before.Findings) != 1 || before.Findings[0].Rule != "unitsafety" {
		t.Fatalf("findings = %v, want one unitsafety hit", before.Findings)
	}
	if got := filepath.ToSlash(before.Findings[0].Pos.Filename); got != "pkg/pkg.go" {
		t.Errorf("finding position %q not module-root-relative", got)
	}

	// The edit must surface the new finding alongside the old one.
	writeFile(t, root, "pkg/pkg.go", "package pkg\n\n// Offset trips unitsafety.\nfunc Offset(c float64) float64 { return c + 273.15 }\n\n// Spin trips it again.\nfunc Spin(rpm float64) float64 { return rpm / 3600 }\n")
	edited, err := RunModule(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(edited.Findings) != 2 || edited.Findings[0].String() != before.Findings[0].String() {
		t.Errorf("edited findings = %v, want the original hit plus the new literal", edited.Findings)
	}
}

// TestRunModuleCacheDependencyInvalidation checks that editing an
// imported package changes the importer's findings even though the
// importer's own files are untouched.
func TestRunModuleCacheDependencyInvalidation(t *testing.T) {
	root := writeTempModule(t, map[string]string{
		"base/base.go": "package base\n\n// Scale is a harmless constant.\nconst Scale = 2.0\n",
		"app/app.go":   "package app\n\nimport \"tmpmod/base\"\n\n// Use keeps the import live.\nfunc Use(x float64) float64 { return x * base.Scale }\n",
	})
	opts := ModuleOptions{Dir: root, Patterns: []string{"app"}}

	before, err := RunModule(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Findings) != 0 {
		t.Fatalf("findings = %v, want none before the edit", before.Findings)
	}

	// Redefine the dependency's constant as a conversion factor.
	writeFile(t, root, "base/base.go", "package base\n\n// Scale became a conversion factor.\nconst Scale = 3600.0\n")
	edited, err := RunModule(opts)
	if err != nil {
		t.Fatal(err)
	}
	// The cross-package fact now fires in app without any literal.
	if len(edited.Findings) != 1 || edited.Findings[0].Rule != "unitsafety" ||
		!strings.Contains(edited.Findings[0].Msg, "base.Scale") {
		t.Errorf("findings = %v, want a unitsafety fact hit on base.Scale", edited.Findings)
	}
}

// TestSummaryCacheInvalidation is the interprocedural twin of the
// dependency test: a caller is flagged because its callee's summary
// blocks; editing only the callee's body must flip the caller's
// findings.
func TestSummaryCacheInvalidation(t *testing.T) {
	root := writeTempModule(t, map[string]string{
		"internal/util/util.go": "package util\n\n// Ping blocks on its channel.\nfunc Ping(c chan int) int { return <-c }\n",
		"internal/app/app.go": strings.Join([]string{
			"package app",
			"",
			"import (",
			"\t\"sync\"",
			"",
			"\t\"tmpmod/internal/util\"",
			")",
			"",
			"var mu sync.Mutex",
			"",
			"// Get calls the helper under the lock.",
			"func Get(c chan int) int {",
			"\tmu.Lock()",
			"\tv := util.Ping(c)",
			"\tmu.Unlock()",
			"\treturn v",
			"}",
			"",
		}, "\n"),
	})
	opts := ModuleOptions{Dir: root, Patterns: []string{"internal/app"}}

	before, err := RunModule(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Findings) != 1 || before.Findings[0].Rule != "lockheld" ||
		!strings.Contains(before.Findings[0].Msg, "util.Ping") {
		t.Fatalf("findings = %v, want one interprocedural lockheld hit through util.Ping", before.Findings)
	}
	if rel := before.Findings[0].Related; len(rel) != 1 ||
		filepath.ToSlash(rel[0].Pos.Filename) != "internal/util/util.go" {
		t.Errorf("interprocedural finding should carry the blocking site in util.go as a related location, got %v", rel)
	}

	// Make the callee non-blocking; app's own bytes are untouched.
	writeFile(t, root, "internal/util/util.go", "package util\n\n// Ping no longer blocks.\nfunc Ping(c chan int) int { return len(c) }\n")
	edited, err := RunModule(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(edited.Findings) != 0 {
		t.Errorf("findings = %v, want none after the callee stopped blocking", edited.Findings)
	}
}

// TestSummaryMutualRecursionTerminates feeds the summary engine a
// mutually recursive pair; the computation must terminate (the on-stack
// marker breaks the cycle) and still see the blocking op through the
// recursion.
func TestSummaryMutualRecursionTerminates(t *testing.T) {
	root := writeTempModule(t, map[string]string{
		"internal/rec/rec.go": strings.Join([]string{
			"package rec",
			"",
			"import \"sync\"",
			"",
			"var mu sync.Mutex",
			"",
			"// Even and Odd recurse into each other; Odd blocks at the base",
			"// case.",
			"func Even(n int, c chan int) bool {",
			"\tif n == 0 {",
			"\t\treturn true",
			"\t}",
			"\treturn Odd(n-1, c)",
			"}",
			"",
			"func Odd(n int, c chan int) bool {",
			"\tif n == 0 {",
			"\t\t<-c",
			"\t\treturn false",
			"\t}",
			"\treturn Even(n-1, c)",
			"}",
			"",
			"// Run holds the lock across the recursive descent.",
			"func Run(c chan int) bool {",
			"\tmu.Lock()",
			"\tv := Even(3, c)",
			"\tmu.Unlock()",
			"\treturn v",
			"}",
			"",
		}, "\n"),
	})
	res, err := RunModule(ModuleOptions{Dir: root, Patterns: []string{"./..."}})
	if err != nil {
		t.Fatal(err)
	}
	var hits []Finding
	for _, f := range res.Findings {
		if f.Rule == "lockheld" {
			hits = append(hits, f)
		}
	}
	if len(hits) != 1 || !strings.Contains(hits[0].Msg, "rec.Even") ||
		!strings.Contains(hits[0].Msg, "channel receive") {
		t.Errorf("lockheld findings = %v, want one reaching the receive through rec.Even", hits)
	}
}

// TestRunModuleAudit seeds one directive of each failure class plus a
// healthy one and checks the audit classifies them exactly.
func TestRunModuleAudit(t *testing.T) {
	src := strings.Join([]string{
		"package pkg",
		"",
		"// Good is a justified suppression: the directive matches a real",
		"// finding and carries a reason.",
		"func Good(c float64) float64 {",
		"\treturn c + 273.15 //lint:allow unitsafety fixture mirrors a data sheet",
		"}",
		"",
		"// Stale suppresses nothing: the line below has no finding.",
		"func Stale(c float64) float64 {",
		"\t//lint:allow unitsafety nothing here anymore",
		"\treturn c + 1",
		"}",
		"",
		"// Unknown names a rule that does not exist.",
		"func Unknown(c float64) float64 {",
		"\t//lint:allow nosuchrule typo preserved for the audit",
		"\treturn c + 2",
		"}",
		"",
		"// Bare has a real finding but no reason text.",
		"func Bare(c float64) float64 {",
		"\treturn c + 273.15 //lint:allow unitsafety",
		"}",
		"",
	}, "\n")
	root := writeTempModule(t, map[string]string{"pkg/pkg.go": src})

	res, err := RunModule(ModuleOptions{Dir: root, Patterns: []string{"./..."}, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	byWhy := make(map[string][]StaleAllow)
	for _, s := range res.Stale {
		byWhy[s.Why] = append(byWhy[s.Why], s)
	}
	if len(res.Stale) != 3 {
		t.Fatalf("audit reported %d problems, want 3: %v", len(res.Stale), res.Stale)
	}
	if got := byWhy["stale"]; len(got) != 1 || got[0].Rule != "unitsafety" || got[0].Pos.Line != 11 {
		t.Errorf("stale reports = %v, want one unitsafety at line 11", got)
	}
	if got := byWhy["unknown-rule"]; len(got) != 1 || got[0].Rule != "nosuchrule" {
		t.Errorf("unknown-rule reports = %v", got)
	}
	if got := byWhy["no-reason"]; len(got) != 1 || got[0].Pos.Line != 23 {
		t.Errorf("no-reason reports = %v, want the bare directive at line 23", got)
	}
	for _, s := range res.Stale {
		if !strings.HasPrefix(filepath.ToSlash(s.Pos.Filename), "pkg/") {
			t.Errorf("audit position %q not module-root-relative", s.Pos.Filename)
		}
	}
	// The CLI prints these lines verbatim.
	want := map[string]string{
		"stale":        ": stale //lint:allow unitsafety: no unitsafety finding on this or the next line",
		"unknown-rule": `: //lint:allow names unknown rule "nosuchrule"`,
		"no-reason":    ": //lint:allow unitsafety has no reason text",
	}
	for _, s := range res.Stale {
		if got := s.String(); !strings.HasSuffix(got, want[s.Why]) || !strings.HasPrefix(got, s.Pos.String()) {
			t.Errorf("%s report prints %q, want position then %q", s.Why, got, want[s.Why])
		}
	}
}

// TestRunModuleSkipsNestedModules checks that ./... stops at a
// subdirectory with its own go.mod, as the go command does: that tree is
// another module, built and checked on its own.
func TestRunModuleSkipsNestedModules(t *testing.T) {
	trip := "package %s\n\n// Offset trips unitsafety.\nfunc Offset(c float64) float64 { return c + 273.15 }\n"
	root := writeTempModule(t, map[string]string{
		"pkg/pkg.go":      strings.ReplaceAll(trip, "%s", "pkg"),
		"tool/go.mod":     "module tool\n\ngo 1.22\n",
		"tool/main.go":    strings.ReplaceAll(trip, "%s", "main"),
		"tool/sub/sub.go": strings.ReplaceAll(trip, "%s", "sub"),
	})
	res, err := RunModule(ModuleOptions{Dir: root, Patterns: []string{"./..."}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 1 || filepath.ToSlash(res.Findings[0].Pos.Filename) != "pkg/pkg.go" {
		t.Errorf("findings = %v, want only the pkg/pkg.go hit", res.Findings)
	}
}
