package mpi

// Stats accumulates the per-rank incoming traffic profile measured at the
// Channel layer — the instrumentation §4.2 adds to MPICH to produce
// Table 1's message rows.  Control messages carry only a header; data
// messages carry header plus user payload.
type Stats struct {
	ControlMsgs  uint64 // RTS + CTS + barrier tokens received
	DataMsgs     uint64 // eager + rendezvous data messages received
	HeaderBytes  uint64 // header bytes received (all kinds)
	PayloadBytes uint64 // user payload bytes received
}

func (s *Stats) account(p *Packet) {
	s.HeaderBytes += HeaderBytes
	if p.IsControl() {
		s.ControlMsgs++
	} else {
		s.DataMsgs++
		s.PayloadBytes += uint64(len(p.Payload))
	}
}

// TotalBytes returns all bytes received at the Channel layer.
func (s *Stats) TotalBytes() uint64 { return s.HeaderBytes + s.PayloadBytes }

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.ControlMsgs += other.ControlMsgs
	s.DataMsgs += other.DataMsgs
	s.HeaderBytes += other.HeaderBytes
	s.PayloadBytes += other.PayloadBytes
}
