package main

// Byte-identity goldens for the claire CLI. TestMain re-executes the test
// binary as the command itself (CLAIRE_RUN_MAIN=1 runs main() with the
// child's arguments), so stdout is compared exactly as a user sees it.
// Regenerate the goldens with `go test ./cmd/claire -update`, and only for a
// change that is meant to alter the output.

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current output")

func TestMain(m *testing.M) {
	if os.Getenv("CLAIRE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// elapsed masks the wall-clock duration of the full run's summary line, the
// only output that varies between identical runs.
var elapsed = regexp.MustCompile(`converged in \S+ over`)

func TestGoldenOutput(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"default", nil},
		{"mix", []string{"-space", "mix", "-catalogue", "examples/catalogue/mobile-7nm.json"}},
		{"search", []string{"-search", "anneal", "-budget", "40", "-seed", "7"}},
		{"staged", []string{"-fidelity", "staged"}},
		{"table2", []string{"-table", "2"}},
		{"figure4", []string{"-figure", "4"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := elapsed.ReplaceAll(runMain(t, append([]string{"-workers", "1"}, tc.args...)...), []byte("converged in ELAPSED over"))
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("claire %v: stdout differs from %s:\n%s", tc.args, path, got)
			}
		})
	}
}

// runMain runs the command from the repository root with args and returns
// its stdout; a non-zero exit fails the test with stderr.
func runMain(t *testing.T, args ...string) []byte {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = filepath.Join("..", "..")
	cmd.Env = append(os.Environ(), "CLAIRE_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("claire %v: %v\n%s", args, err, stderr.Bytes())
	}
	return out
}
