package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// campaign runs the CLI with args on a fresh flag set and returns its
// exit status and stdout.
func campaign(t *testing.T, args ...string) (int, []byte) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	oldArgs, oldFlags, oldStdout := os.Args, flag.CommandLine, os.Stdout
	defer func() { os.Args, flag.CommandLine, os.Stdout = oldArgs, oldFlags, oldStdout }()
	os.Args = append([]string{"faultcampaign"}, args...)
	flag.CommandLine = flag.NewFlagSet("faultcampaign", flag.ContinueOnError)
	os.Stdout = out

	code := run()
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, b
}

// TestResumeConvergedAdaptiveJournal: resuming an adaptive campaign whose
// journal has already converged runs no round, so it has no golden run;
// the CLI must still print the same tables (and not dereference the
// missing golden for -trace-out).
func TestResumeConvergedAdaptiveJournal(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "j.jsonl")
	trace := filepath.Join(dir, "trace.json")
	args := []string{"-app", "wavetoy", "-regions", "reg,message", "-adaptive", "-d", "0.2",
		"-seed", "3", "-csv", "-quiet", "-trace-diff", "-trace-out", trace, "-journal", journal}

	code, first := campaign(t, args...)
	if code != 0 {
		t.Fatalf("first run exited %d", code)
	}
	if _, err := os.Stat(trace); err != nil {
		t.Fatalf("first run wrote no -trace-out: %v", err)
	}
	code, resumed := campaign(t, append(args, "-resume")...)
	if code != 0 {
		t.Fatalf("resumed run exited %d", code)
	}
	if !bytes.Equal(first, resumed) {
		t.Errorf("resumed CSV differs:\nfirst:\n%s\nresumed:\n%s", first, resumed)
	}
}
