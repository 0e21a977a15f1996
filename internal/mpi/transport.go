package mpi

// Transport abstracts the Channel layer's byte delivery.  The default
// (nil) transport is in-process queues, the only one campaigns use; the
// interface is the seam tests substitute a fake through.  The injection
// point is unchanged either way: the receiver-side hook runs on the raw
// bytes after they are read and before they are parsed.
type Transport interface {
	// Send delivers one framed packet from src to dst.  It may block
	// (backpressure) and must be safe for one concurrent writer per src.
	Send(src, dst int, frame []byte) error
	// Close tears down the transport and unblocks readers.
	Close() error
}

// PushPacket enqueues a raw packet for dst, on behalf of a transport's
// receive path.  It performs the same accounting as in-process delivery.
func (w *World) PushPacket(dst int, raw []byte) {
	w.inflight.Add(1)
	w.progress.Add(1)
	select {
	case w.procs[dst].in <- raw:
	case <-w.kill:
		w.inflight.Add(-1)
	}
}
