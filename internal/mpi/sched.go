// iter.Pull is newer than the module's language version; the constraint
// raises this file's.

//go:build go1.23

package mpi

import "iter"

// A rank executes as a coroutine, and the job's scheduler (cluster.Run)
// resumes one rank at a time on its own goroutine.  A rank hands control
// back at its scheduling points only: a pull on an empty Channel queue, a
// send (after the enqueue, and before it while the queue is full), where
// a snapshot that is due holds it (Yield), and its end.  Between two of
// them nothing else in the world moves, so which packet a pull finds, and
// everything that follows from it, depends on the scheduler's rule alone —
// never on the host.

// waitKind is what a suspended rank needs before it can continue.
type waitKind uint8

const (
	waitNone waitKind = iota // nothing: it only gave way
	waitRecv                 // a packet in its own queue
	waitSend                 // room in waitDst's queue
)

// Start makes body the rank's execution.  Nothing of it runs before the
// first Resume.
func (p *Proc) Start(body func()) {
	p.resume, p.cancel = iter.Pull(func(yield func(struct{}) bool) {
		p.suspend = yield
		body()
	})
}

// Resume runs the rank up to its next scheduling point and reports whether
// body is still unfinished.
func (p *Proc) Resume() bool {
	_, live := p.resume()
	return live
}

// Kill ends the rank: the scheduling point it is suspended in fails —
// a killed trap inside the runtime, false from Yield — as does every
// later one, and Kill returns when body has.  A rank never resumed never
// runs.
func (p *Proc) Kill() { p.cancel() }

// Runnable reports whether a suspended rank has what it waits for.
func (p *Proc) Runnable() bool {
	switch p.waits {
	case waitRecv:
		return p.queued() > 0
	case waitSend:
		return p.waitDst.queued() < p.w.cfg.QueueDepth
	}
	return true
}

// Awaits returns the rank a suspended rank cannot continue without — the
// one whose queue is full, or whose packet the blocking call needs — or -1
// when it waits for nothing or cannot tell (a wildcard receive).
func (p *Proc) Awaits() int {
	switch p.waits {
	case waitSend:
		return p.waitDst.rank
	case waitRecv:
		return int(p.awaits)
	}
	return -1
}

// Yield is a scheduling point that waits for nothing inside the runtime;
// the caller keeps the rank from being resumed for as long as it must.
// False means the job is being torn down.
func (p *Proc) Yield() bool { return p.yield(waitNone, nil) }

func (p *Proc) yield(k waitKind, dst *Proc) bool {
	p.waits, p.waitDst = k, dst
	live := p.suspend(struct{}{})
	p.waits, p.waitDst = waitNone, nil
	return live
}
