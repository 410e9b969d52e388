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
// code of the documented invocations on the -demo article against
// testdata/<case>.golden: the four-test and extended campaigns at one
// and four workers, and their -keep-going runs.
func TestGoldenStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("binary golden test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "qualify")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	demo, err := exec.Command(bin, "-demo").Output()
	if err != nil {
		t.Fatal(err)
	}
	article := filepath.Join(dir, "article.json")
	if err := os.WriteFile(article, demo, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		args []string
	}{
		{"workers1", []string{"-workers", "1"}},
		{"workers4", []string{"-workers", "4"}},
		{"extended-workers1", []string{"-extended", "-workers", "1"}},
		{"extended-workers4", []string{"-extended", "-workers", "4"}},
		{"keep-going", []string{"-keep-going"}},
		{"extended-keep-going", []string{"-extended", "-keep-going", "-workers", "4"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			checkGolden(t, c.name, runCLI(t, bin, append([]string{"-article", article}, c.args...)...))
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
