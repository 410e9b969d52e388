package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// TestGoldenStdout builds the real binary and pins the stdout and exit
// code of the documented invocations against testdata/<case>.golden:
// the -demo spec as summary tables, as a design document and under
// -keep-going, and the -equipment-demo file.
func TestGoldenStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("binary golden test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "aeropack")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	write := func(opt, name string) string {
		t.Helper()
		out, err := exec.Command(bin, opt).Output()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := write("-demo", "board.json")
	equipment := write("-equipment-demo", "rack.json")
	for _, c := range []struct {
		name string
		args []string
	}{
		{"spec", []string{"-spec", spec}},
		{"spec-doc", []string{"-spec", spec, "-doc"}},
		{"spec-keep-going", []string{"-spec", spec, "-keep-going"}},
		{"equipment", []string{"-equipment", equipment}},
	} {
		t.Run(c.name, func(t *testing.T) {
			checkGolden(t, c.name, runCLI(t, bin, c.args...))
		})
	}
}

// runCLI runs bin and returns "exit <code>\n" followed by its stdout.
func runCLI(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).Output()
	code := 0
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("exit %d\n%s", code, out)
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s: stdout/exit differ from %s\n--- got ---\n%s--- want ---\n%s", name, path, got, want)
	}
}
