package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs ccrun's main instead of the tests when CCRUN_ARGS is set,
// so a test can drive the command as a subprocess of its own binary.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("CCRUN_ARGS"); ok {
		os.Args = append([]string{"ccrun"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ccrun runs the command with args and returns its exit code and stderr.
func ccrun(t *testing.T, args string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CCRUN_ARGS="+args)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatal(err)
	return 0, ""
}

// TestAlgoFlag: -algo accepts the public algorithms and refuses the
// classical baselines with the library's unknown-algorithm error.
func TestAlgoFlag(t *testing.T) {
	for _, algo := range []string{"fls", "fls-known-gap", "union-find", "cas", "sample", "frontier", "auto"} {
		if code, stderr := ccrun(t, "-gen cycle:n=64 -verify -algo "+algo); code != 0 {
			t.Errorf("-algo %s: exit %d: %s", algo, code, stderr)
		}
	}
	for _, algo := range []string{"ltz", "sv", "random-mate", "label-prop", "liu-tarjan", "parallel-bfs", "bfs"} {
		code, stderr := ccrun(t, "-gen cycle:n=64 -algo "+algo)
		if want := `unknown algorithm "` + algo + `"`; code != 1 || !strings.Contains(stderr, want) {
			t.Errorf("-algo %s: exit %d, stderr %q; want exit 1 with %s", algo, code, stderr, want)
		}
	}
}
