package main

import (
	"bytes"
	"flag"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mpifault/internal/report"
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

// TestWorkerRefusesFlagsItIgnores: a worker reads only -worker,
// -worker-name, -parallel and -quiet, so any other flag — -metrics-out
// here, which a worker would silently drop — exits 1 before it polls the
// coordinator, naming the flag.
func TestWorkerRefusesFlagsItIgnores(t *testing.T) {
	var stderr bytes.Buffer
	log.SetOutput(&stderr)
	defer log.SetOutput(os.Stderr)
	start := time.Now()
	code, _ := campaign(t, "-worker", "http://127.0.0.1:1", "-parallel", "1", "-quiet",
		"-metrics-out", filepath.Join(t.TempDir(), "x"))
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("refusal took %v; it must not poll the coordinator first", d)
	}
	if !strings.Contains(stderr.String(), "drop -metrics-out") {
		t.Errorf("stderr %q does not name -metrics-out", stderr.String())
	}
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

// TestScaleIsCampaignIdentity: a journal run at a non-default -scale
// records it, so resuming it at the default scale and merging it with a
// default-scale shard are both refused, while a default-scale journal's
// header stays byte-compatible (no "scale" key).
func TestScaleIsCampaignIdentity(t *testing.T) {
	dir := t.TempDir()
	scaled := filepath.Join(dir, "scaled.jsonl")
	plain := filepath.Join(dir, "plain.jsonl")
	args := []string{"-app", "wavetoy", "-n", "2", "-regions", "reg", "-seed", "5", "-csv", "-quiet"}
	if code, _ := campaign(t, append(args, "-scale", "64", "-journal", scaled)...); code != 0 {
		t.Fatalf("scaled run exited %d", code)
	}
	if code, _ := campaign(t, append(args, "-journal", plain)...); code != 0 {
		t.Fatalf("default-scale run exited %d", code)
	}
	for path, want := range map[string]bool{scaled: true, plain: false} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		header, _, _ := bytes.Cut(data, []byte("\n"))
		if got := bytes.Contains(header, []byte(`"scale":64`)); got != want {
			t.Errorf("%s header %s: records scale 64 = %v, want %v", filepath.Base(path), header, got, want)
		}
		if !want && bytes.Contains(header, []byte(`"scale"`)) {
			t.Errorf("default-scale header %s records a scale", header)
		}
	}
	if code, _ := campaign(t, append(args, "-journal", scaled, "-resume")...); code == 0 {
		t.Error("resuming a -scale 64 journal at the default scale was accepted")
	}
	if _, err := report.MergeJournals([]string{scaled, plain}); err == nil {
		t.Error("merging a -scale 64 shard with a default-scale one was accepted")
	}
}
