package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main itself when QAFIG_ARGS is set, so a test can run
// the command in a child process and read its exit status.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("QAFIG_ARGS"); ok {
		os.Args = append([]string{"qafig"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestConflictingFlagsExit2: a flag the chosen mode would ignore, or a
// second mode, ends the command with status 2 before anything runs.
func TestConflictingFlagsExit2(t *testing.T) {
	for _, args := range []string{
		"-transports -transport delay",
		"-transports -kmax 5",
		"-tables -kmax 5",
		"-fig 1 -kmax 5",
		"-fig 2 -kmax 5",
		"-fig 12 -kmax 5",
		"-fig 13 -kmax 5",
		"-tables -fig 12",
		"-all -transports",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "QAFIG_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("qafig %s: %v, output %q; want exit status 2", args, err, out)
		} else if !strings.HasPrefix(string(out), "qafig: ") {
			t.Errorf("qafig %s: output %q; want a qafig: message", args, out)
		}
	}
}
