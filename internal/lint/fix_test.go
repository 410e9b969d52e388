package lint

import (
	"go/format"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixableModule lays out a module with one errdrop sentinel comparison
// and one unitsafety conversion literal, both carrying machine-
// applicable fixes.
func fixableModule(t *testing.T) string {
	t.Helper()
	return writeTempModule(t, map[string]string{
		"internal/units/units.go": strings.Join([]string{
			"// Package units mirrors the real conversion helpers.",
			"package units",
			"",
			"// CToK converts Celsius to Kelvin.",
			"func CToK(c float64) float64 { return c + 273.15 }",
			"",
			"// KToC converts Kelvin to Celsius.",
			"func KToC(k float64) float64 { return k - 273.15 }",
			"",
		}, "\n"),
		"app/app.go": strings.Join([]string{
			"package app",
			"",
			"import (",
			"\t\"fmt\"",
			"",
			"\t\"tmpmod/internal/units\"",
			")",
			"",
			"var _ = units.CToK",
			"",
			"// ErrStopped mirrors a solver sentinel.",
			"var ErrStopped = fmt.Errorf(\"stopped\")",
			"",
			"// Stopped compares with == where errors.Is is required.",
			"func Stopped(err error) bool {",
			"\treturn err == ErrStopped",
			"}",
			"",
			"// Offset does the inline conversion the units helper exists for.",
			"func Offset(c float64) float64 {",
			"\treturn c + 273.15",
			"}",
			"",
		}, "\n"),
	})
}

// TestFixRoundTrip proves the full -fix pipeline: findings carry fixes
// with root-relative edits, dry-run changes nothing, a real apply
// rewrites the file, and the result re-lints clean and is gofmt-clean.
func TestFixRoundTrip(t *testing.T) {
	root := fixableModule(t)
	opts := ModuleOptions{Dir: root, Patterns: []string{"./..."}}

	res, err := RunModule(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := PendingFixes(res.Findings); got != 2 {
		t.Fatalf("PendingFixes = %d, want 2 (errdrop + unitsafety): %v", got, res.Findings)
	}
	for _, f := range res.Findings {
		if f.Fix == nil {
			continue
		}
		for _, e := range f.Fix.Edits {
			if filepath.ToSlash(e.File) != "app/app.go" {
				t.Errorf("fix edit file %q not module-root-relative", e.File)
			}
		}
	}

	appPath := filepath.Join(root, "app", "app.go")
	before, err := os.ReadFile(appPath)
	if err != nil {
		t.Fatal(err)
	}

	// Dry-run: the changed list is populated, the file is untouched.
	changed, err := ApplyFixes(root, res.Findings, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 1 || filepath.ToSlash(changed[0]) != "app/app.go" {
		t.Fatalf("dry-run changed = %v, want [app/app.go]", changed)
	}
	after, err := os.ReadFile(appPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatal("dry-run must not write the file")
	}

	// Real apply: both rewrites land in one pass.
	if _, err := ApplyFixes(root, res.Findings, false); err != nil {
		t.Fatal(err)
	}
	fixed, err := os.ReadFile(appPath)
	if err != nil {
		t.Fatal(err)
	}
	src := string(fixed)
	if !strings.Contains(src, "errors.Is(err, ErrStopped)") {
		t.Errorf("sentinel comparison not rewritten:\n%s", src)
	}
	if !strings.Contains(src, "\"errors\"") {
		t.Errorf("errors import not added:\n%s", src)
	}
	if !strings.Contains(src, "units.CToK(c)") {
		t.Errorf("conversion literal not rewritten:\n%s", src)
	}

	// The applied file is gofmt-clean.
	formatted, err := format.Source(fixed)
	if err != nil {
		t.Fatalf("fixed file does not parse: %v", err)
	}
	if string(formatted) != src {
		t.Errorf("fixed file is not gofmt-clean:\n%s", src)
	}

	// And the module re-lints clean.
	again, err := RunModule(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Findings) != 0 {
		t.Errorf("findings after -fix = %v, want none", again.Findings)
	}
}

// TestApplyFixesSkipsStaleEdits proves out-of-range and overlapping
// edits are dropped instead of corrupting the file.
func TestApplyFixesSkipsStaleEdits(t *testing.T) {
	root := writeTempModule(t, map[string]string{
		"app/app.go": "package app\n",
	})
	findings := []Finding{
		{Fix: &Fix{Desc: "stale", Edits: []TextEdit{{File: "app/app.go", Offset: 5000, End: 5004, New: "nope"}}}},
	}
	changed, err := ApplyFixes(root, findings, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 0 {
		t.Errorf("stale out-of-range edit applied: %v", changed)
	}
	data, err := os.ReadFile(filepath.Join(root, "app", "app.go"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "package app\n" {
		t.Errorf("file corrupted by stale edit: %q", data)
	}
}
