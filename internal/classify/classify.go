// Package classify maps a finished run to the paper's error-manifestation
// taxonomy (§5.1): Correct, Crash, Hang, Incorrect output, Application
// Detected, and MPI Detected.
package classify

import (
	"bytes"
	"fmt"

	"mpifault/internal/cluster"
	"mpifault/internal/vm"
)

// Outcome is one of the paper's manifestation classes.
type Outcome int

const (
	// Correct: the injected fault did not manifest.
	Correct Outcome = iota
	// Crash: abnormal termination surfaced through MPICH's signal and
	// error handling (SIGSEGV/SIGILL/SIGFPE or a fatal library error).
	Crash
	// Hang: the application failed to terminate (deadlock, livelock, or
	// exceeding the expected-completion margin).
	Hang
	// Incorrect: execution finished without any reported error but the
	// output differs from the golden run — silent data corruption.
	Incorrect
	// AppDetected: an internal application consistency check (assertion,
	// NaN test, checksum, bound check) caught the error and aborted.
	AppDetected
	// MPIDetected: the user-registered MPI error handler was invoked
	// (argument-check failure inside an MPI call).
	MPIDetected

	NumOutcomes
)

// String returns the paper's name for the class.
func (o Outcome) String() string {
	switch o {
	case Correct:
		return "Correct"
	case Crash:
		return "Crash"
	case Hang:
		return "Hang"
	case Incorrect:
		return "Incorrect"
	case AppDetected:
		return "App Detected"
	case MPIDetected:
		return "MPI Detected"
	default:
		return "Outcome?"
	}
}

// ParseOutcome inverts String: it resolves the paper's name for a
// manifestation class, as serialized in campaign journals.
func ParseOutcome(s string) (Outcome, error) {
	for o := Outcome(0); o < NumOutcomes; o++ {
		if o.String() == s {
			return o, nil
		}
	}
	return 0, fmt.Errorf("classify: unknown outcome %q", s)
}

// IsError reports whether the outcome counts as a manifested error (the
// numerator of the paper's error rate).
func (o Outcome) IsError() bool { return o != Correct }

// Failure classifies a job by its first failure (Result.FirstFailure).
func Failure(t *vm.Trap) Outcome {
	switch t.Kind {
	case vm.TrapAbort:
		return AppDetected
	case vm.TrapMPIHandler:
		return MPIDetected
	default:
		return Crash
	}
}

// Classify determines the manifestation of one run against the golden
// canonical output.
//
// Precedence follows the paper's §5.1 measurement procedure: an explicit
// detection (application abort, MPI error handler) takes priority over the
// crash it causes elsewhere; crashes take priority over the hang the
// surviving ranks would otherwise exhibit; hang beats output comparison
// (a hung run was terminated, so its output is meaningless); and only a
// run that finished silently is compared byte-for-byte with the golden
// output.
func Classify(res *cluster.Result, golden []byte) Outcome {
	if t := res.FirstFailure(); t != nil {
		return Failure(t)
	}
	if res.HangDetected {
		return Hang
	}
	for _, rr := range res.Ranks {
		if rr.Trap == nil || rr.Trap.Kind != vm.TrapExit || rr.Trap.Code != 0 {
			// A rank vanished or exited nonzero with no diagnostic: the
			// user sees a failed job with no library error — silent
			// abnormality, counted as incorrect output.
			return Incorrect
		}
	}
	if !bytes.Equal(res.CanonicalOutput(), golden) {
		return Incorrect
	}
	return Correct
}
