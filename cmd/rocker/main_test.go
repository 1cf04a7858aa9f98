package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the rocker command: with
// ROCKER_RUN_MAIN=1 set it runs main's body on its own arguments, so tests
// can observe a real process's exit status and the files it leaves behind.
func TestMain(m *testing.M) {
	if os.Getenv("ROCKER_RUN_MAIN") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// TestBoundHitExit checks that an error exit still runs the deferred
// profile writers and the -stats print: a state-bound hit exits 2 and
// leaves non-empty CPU and heap profiles.
func TestBoundHitExit(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	cmd := exec.Command(os.Args[0], "-max", "10", "-stats", "-cpuprofile", cpu, "-memprofile", mem,
		"-corpus", "peterson-ra")
	cmd.Env = append(os.Environ(), "ROCKER_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("exit: %v, want status 2\n%s", err, out)
	}
	for _, want := range []string{"state bound exceeded", "stats: no verdict", "heap:"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	for _, f := range []string{cpu, mem} {
		if fi, err := os.Stat(f); err != nil {
			t.Error(err)
		} else if fi.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(f))
		}
	}
}
