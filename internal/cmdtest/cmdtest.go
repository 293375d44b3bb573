// Package cmdtest runs a command's main in a re-executed copy of its own
// test binary, so a test drives the real program (flags, printed output,
// exit code) without a build step.  A command's tests wire it in with
//
//	func TestMain(m *testing.M) { cmdtest.Main(m, main) }
package cmdtest

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// argsEnv carries the program's arguments, one per line, to the re-run.
const argsEnv = "PARCC_CMDTEST_ARGS"

// Main runs main, and exits 0 when it returns, if Command started this
// binary; otherwise it runs the tests.
func Main(m *testing.M, main func()) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		if os.Args = os.Args[:1]; args != "" {
			os.Args = append(os.Args, strings.Split(args, "\n")...)
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Command returns an unstarted process that runs the program with args.
func Command(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), argsEnv+"="+strings.Join(args, "\n"))
	return cmd
}

// Run runs the program with args and returns its stdout, stderr and exit
// code.
func Run(t testing.TB, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errOut strings.Builder
	cmd := Command(args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// Field returns the trimmed rest of the first line of out that starts
// with prefix, failing the test when no line does.
func Field(t testing.TB, out, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			return strings.TrimSpace(rest)
		}
	}
	t.Fatalf("no line starts with %q in:\n%s", prefix, out)
	return ""
}
