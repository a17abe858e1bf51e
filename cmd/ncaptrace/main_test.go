package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test re-execute this binary as the ncaptrace command:
// with NCAPTRACE_MAIN set, the process runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("NCAPTRACE_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ncaptrace runs the command with args and returns its exit code and
// standard error.
func ncaptrace(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "NCAPTRACE_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// A non-positive sampling interval or worker count is a usage error
// (exit 2 with a message naming the flag), not a crash or a silent
// fallback to GOMAXPROCS.
func TestIntervalMustBePositive(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-interval", "0"}, {"-interval", "-1ms"},
		{"-jobs", "0"}, {"-jobs", "-1"},
	} {
		code, stderr := ncaptrace(t, tc.flag, tc.value)
		if first, _, _ := strings.Cut(stderr, "\n"); code != 2 || !strings.HasPrefix(first, "ncaptrace: "+tc.flag+" ") {
			t.Errorf("%s %s: exit %d, first stderr line %q; want exit 2 naming the flag", tc.flag, tc.value, code, first)
		}
	}
}

// Snapshot mode honours -loss and -interval: each changes the CSV pair.
func TestSnapshotAppliesLossAndInterval(t *testing.T) {
	dir := t.TempDir()
	snapshot := func(name string, extra ...string) string {
		t.Helper()
		prefix := filepath.Join(dir, name)
		args := append([]string{"-snapshot", "-measure", "20ms", "-out", prefix}, extra...)
		if code, stderr := ncaptrace(t, args...); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr)
		}
		var out string
		for _, policy := range []string{"ond.idle", "ncap.cons"} {
			blob, err := os.ReadFile(prefix + "_" + policy + ".csv")
			if err != nil {
				t.Fatal(err)
			}
			out += string(blob)
		}
		return out
	}
	base := snapshot("base")
	if snapshot("loss", "-loss", "0.2") == base {
		t.Error("-snapshot ignored -loss")
	}
	if snapshot("interval", "-interval", "2ms") == base {
		t.Error("-snapshot ignored -interval")
	}
}
