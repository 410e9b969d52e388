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
// code of every documented invocation against testdata/<case>.golden.
// The serial, pooled and keep-going runs must print the same tables.
func TestGoldenStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("binary golden test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "cosee")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range []struct {
		name string
		args []string
	}{
		{"default", nil},
		{"csv", []string{"-csv"}},
		{"workers0", []string{"-workers", "0"}},
		{"keep-going", []string{"-keep-going"}},
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
