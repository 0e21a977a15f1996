package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"
)

// binaries are the shipped programs the benchmark drives, built once
// per run into the checkout's build directory; build time is not measured.
type binaries struct {
	campaign, coord string
}

// buildDir is where everything the benchmark builds or writes at run
// time lives, inside the checkout and named in .gitignore.
const buildDir = ".bench_build"

func buildBinaries(root string) (binaries, error) {
	bin := filepath.Join(root, buildDir, "bin")
	cmd := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./cmd/faultcampaign", "./cmd/faultcoord")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("go build: %v\n%s", err, out)
	}
	return binaries{campaign: filepath.Join(bin, "faultcampaign"), coord: filepath.Join(bin, "faultcoord")}, nil
}

// trial is one end-to-end execution of a workload's campaign.
type trial struct {
	WallS  float64 // process start to exit of the campaign command
	CPUS   float64 // user+sys over every process the campaign started
	RSSMB  float64 // peak resident set, summed over concurrent processes
	CSV    []byte
	Stderr []byte
	// JournalSHA is the journalDigest of the journal, for workloads that
	// keep one.
	JournalSHA string
	// Unclassified is the "failed to classify" count of a campaign that
	// exited 1 for that reason alone; any other failure is an error.
	Unclassified int
}

// exitedUnclassified reports whether err is the campaign's exit status 1
// and stderr carries its "failed to classify" count.
func exitedUnclassified(err error, stderr []byte) int {
	var ee *exec.ExitError
	if errors.As(err, &ee) && ee.ExitCode() == 1 {
		return parseUnclassified(stderr)
	}
	return 0
}

// usage adds a finished process's CPU time and peak RSS to the trial.
func (t *trial) usage(ps *os.ProcessState) {
	t.CPUS += ps.UserTime().Seconds() + ps.SystemTime().Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		t.RSSMB += float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
}

// runTrial executes the workload once, in dir, with the program seed.
func runTrial(bins binaries, w workload, seed uint64, dir string) (*trial, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if w.LeaseSize > 0 {
		return runCoordTrial(bins, w, seed, dir)
	}
	journal := filepath.Join(dir, "journal.jsonl")
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bins.campaign, w.args(seed, journal)...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	t := &trial{WallS: time.Since(start).Seconds(), CSV: stdout.Bytes(), Stderr: stderr.Bytes()}
	if err != nil {
		if t.Unclassified = exitedUnclassified(err, t.Stderr); t.Unclassified > 0 {
			return t, nil
		}
		return nil, fmt.Errorf("faultcampaign %s: %v\n%s", strings.Join(cmd.Args[1:], " "), err, t.Stderr)
	}
	t.usage(cmd.ProcessState)
	if w.Journal {
		data, err := os.ReadFile(journal)
		if err != nil {
			return nil, err
		}
		t.JournalSHA = journalDigest(data)
	}
	return t, nil
}

// detailRE matches an experiment line's "detail" field.
var detailRE = regexp.MustCompile(`,"detail":"(?:[^"\\]|\\.)*"`)

// journalDigest is the SHA-256 of a journal without its "detail" fields;
// every other byte counts.  The detail of a Crash names the pc and
// address of whichever crashing rank was noticed first, and when a fault
// brings down several ranks that is up to the host's scheduler (minimd
// seed 17, experiment reg/69, differs in about one run in thirty): the
// same dependence as ROADMAP item 1, and not an outcome.
func journalDigest(journal []byte) string {
	return fmt.Sprintf("%x", sha256.Sum256(detailRE.ReplaceAll(journal, nil)))
}

// runCoordTrial runs the campaign through a faultcoord coordinator and
// two single-threaded faultcampaign workers.  The clock runs from
// coordinator start to coordinator exit.  The workers would retry the
// vanished coordinator for about 15 s, so they are killed and reaped as
// soon as it exits: Wait still returns their rusage, and no process
// outlives the trial.
func runCoordTrial(bins binaries, w workload, seed uint64, dir string) (*trial, error) {
	addrFile := filepath.Join(dir, "addr")
	out := filepath.Join(dir, "final.csv")
	os.Remove(addrFile)

	// The three processes share one stderr file: an *os.File is handed to
	// each child as a descriptor, so their writes need no goroutine here.
	errPath := filepath.Join(dir, "stderr.log")
	errFile, err := os.OpenFile(errPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer errFile.Close()
	stderr := func() []byte {
		data, _ := os.ReadFile(errPath) // diagnostics only
		return data
	}

	coord := exec.Command(bins.coord, w.coordArgs(seed, addrFile, out)...)
	coord.Stderr = errFile
	start := time.Now()
	if err := coord.Start(); err != nil {
		return nil, err
	}
	var workers []*exec.Cmd
	reap := func() {
		for _, c := range workers {
			c.Process.Kill()
			c.Wait()
		}
	}

	url, err := waitAddrFile(addrFile)
	if err != nil {
		coord.Process.Kill()
		coord.Wait()
		return nil, fmt.Errorf("faultcoord: %v\n%s", err, stderr())
	}
	for i := 0; i < 2; i++ {
		c := exec.Command(bins.campaign, "-worker", url, "-worker-name", fmt.Sprintf("w%d", i+1),
			"-parallel", "1", "-quiet")
		c.Stderr = errFile
		if err := c.Start(); err != nil {
			reap()
			coord.Process.Kill()
			coord.Wait()
			return nil, err
		}
		workers = append(workers, c)
	}

	err = coord.Wait()
	t := &trial{WallS: time.Since(start).Seconds()}
	reap()
	t.Stderr = stderr()
	if err != nil {
		if t.Unclassified = exitedUnclassified(err, t.Stderr); t.Unclassified > 0 {
			return t, nil
		}
		return nil, fmt.Errorf("faultcoord: %v\n%s", err, t.Stderr)
	}
	t.usage(coord.ProcessState)
	for _, c := range workers {
		// A worker ends by the kill above or, if it saw the campaign
		// finish first, by exit 0; any other exit is a failed trial.
		if ps := c.ProcessState; ps.Exited() && ps.ExitCode() != 0 {
			return nil, fmt.Errorf("worker exited with status %d\n%s", ps.ExitCode(), t.Stderr)
		}
		t.usage(c.ProcessState)
	}
	if t.CSV, err = os.ReadFile(out); err != nil {
		return nil, err
	}
	return t, nil
}

// waitAddrFile polls for the coordinator's base URL.
func waitAddrFile(path string) (string, error) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(path); err == nil && bytes.HasSuffix(data, []byte("\n")) {
			return strings.TrimSpace(string(data)), nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return "", errors.New("coordinator never wrote its address file")
}
