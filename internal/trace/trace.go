// Package trace implements the working-set analysis of §6.1.2 (Tables
// 5-7): the Valgrind-based measurement the paper uses to explain why
// memory fault injections so rarely manifest.
//
// Definition (from the paper): the working set size at time t is the size
// of memory accessed *since* t — a non-increasing function of t.  The
// curves start high (initialization code touches startup data once),
// drop sharply at the phase shift into the computation kernel, and stay
// flat through the periodic compute phase.  A fault landing outside the
// current working set cannot manifest, which is exactly what the low
// memory-region error rates in Tables 2-4 reflect.
package trace

import (
	"sort"

	"mpifault/internal/image"
)

// lineShift is the tracking granularity: 8-byte lines for data (one
// float64), instruction slots for text.
const lineShift = 3

// A lineTable holds one last-access time per line of the 32-bit address
// space, 0 for a line never accessed (every access happens inside an
// instruction, at time 1 or later).  It is a two-level radix over 4 KiB
// pages, so an access costs two indexed loads and the table grows only with
// the pages touched.
type (
	linePage  [1 << (pageShift - lineShift)]uint64
	pageDir   [1 << (dirShift - pageShift)]*linePage
	lineTable [1 << (32 - dirShift)]*pageDir
)

const (
	pageShift = 12
	dirShift  = 22 // each directory covers 4 MiB
)

func (lt *lineTable) set(addr uint32, t uint64) {
	d := lt[addr>>dirShift]
	if d == nil {
		d = new(pageDir)
		lt[addr>>dirShift] = d
	}
	p := d[addr>>pageShift%uint32(len(d))]
	if p == nil {
		p = new(linePage)
		d[addr>>pageShift%uint32(len(d))] = p
	}
	p[addr>>lineShift%uint32(len(p))] = t
}

func (lt *lineTable) at(addr uint32) uint64 {
	if d := lt[addr>>dirShift]; d != nil {
		if p := d[addr>>pageShift%uint32(len(d))]; p != nil {
			return p[addr>>lineShift%uint32(len(p))]
		}
	}
	return 0
}

// each calls fn with the address and last-access time of every line
// accessed, in address order.
func (lt *lineTable) each(fn func(addr uint32, last uint64)) {
	for i, d := range lt {
		if d == nil {
			continue
		}
		for j, p := range d {
			if p == nil {
				continue
			}
			base := uint32(i)<<dirShift | uint32(j)<<pageShift
			for k, last := range p {
				if last != 0 {
					fn(base|uint32(k)<<lineShift, last)
				}
			}
		}
	}
}

// WorkingSetTracer records, for every touched text slot and data line,
// the last time (in retired instructions — the analogue of the paper's
// basic-block counts) it was accessed.  It implements vm.Tracer.
//
// Attached from t=0, it is also a read index: LastAccess says whether
// anything reads a byte after a given instruction (DESIGN.md §3.4 "Dead at
// injection").
type WorkingSetTracer struct {
	// TrackStores widens the data trace to include writes; the paper's
	// measurement uses loads only ("data accesses, which are memory
	// loads"), so it defaults to false.
	TrackStores bool

	now  uint64
	text lineTable
	data lineTable
}

// New returns an empty tracer.
func New() *WorkingSetTracer { return &WorkingSetTracer{} }

// Exec records an instruction fetch.
func (t *WorkingSetTracer) Exec(pc uint32) {
	t.now++
	t.text.set(pc, t.now)
}

// Load records a data load of size bytes at addr.
func (t *WorkingSetTracer) Load(addr uint32, size int) {
	for line := addr >> lineShift; line <= (addr+uint32(size)-1)>>lineShift; line++ {
		t.data.set(line<<lineShift, t.now)
	}
}

// Store records a data store; ignored unless TrackStores is set.
func (t *WorkingSetTracer) Store(addr uint32, size int) {
	if t.TrackStores {
		t.Load(addr, size)
	}
}

// Now returns the tracer's current time (instructions observed).
func (t *WorkingSetTracer) Now() uint64 { return t.now }

// LastAccess returns the time of the last fetch or load of the line holding
// addr: the count of instructions observed up to and including the one that
// accessed it, 0 for never.  Nothing reads the line after instruction n
// (n retired) exactly when LastAccess is at most n.
func (t *WorkingSetTracer) LastAccess(addr uint32) uint64 {
	return max(t.text.at(addr), t.data.at(addr))
}

// Series is a sampled set of working-set curves, each in percent of its
// section's size — the data behind one of the paper's Tables 5-7.
type Series struct {
	// Times are the sample points on the block-count axis.
	Times []uint64
	// TextPct is the executed-text working set relative to text size.
	TextPct []float64
	// DataPct, BSSPct, HeapPct are per-section load working sets.
	DataPct []float64
	BSSPct  []float64
	HeapPct []float64
	// CombinedPct is the Data+BSS+Heap curve the paper plots.
	CombinedPct []float64
}

// Analyze computes working-set curves at n evenly spaced sample times.
// heapUsed is the number of heap bytes ever allocated (the denominator
// for the heap share); im supplies the section boundaries.
func (t *WorkingSetTracer) Analyze(im *image.Image, heapUsed uint32, n int) *Series {
	if n < 2 {
		n = 2
	}

	// Bucket last-access times by section.
	var textLasts, dataLasts, bssLasts, heapLasts []uint64
	t.text.each(func(addr uint32, last uint64) {
		if addr >= image.TextBase && addr < im.TextEnd() {
			textLasts = append(textLasts, last)
		}
	})
	t.data.each(func(addr uint32, last uint64) {
		switch {
		case addr >= im.DataBase && addr < im.DataEnd():
			dataLasts = append(dataLasts, last)
		case addr >= im.BSSBase && addr < im.BSSEnd():
			bssLasts = append(bssLasts, last)
		case addr >= im.HeapBase && addr < im.HeapLimit:
			heapLasts = append(heapLasts, last)
		}
	})
	for _, s := range [][]uint64{textLasts, dataLasts, bssLasts, heapLasts} {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}

	lineBytes := float64(uint32(1) << lineShift)
	pct := func(lasts []uint64, at uint64, sectionBytes uint32) float64 {
		if sectionBytes == 0 {
			return 0
		}
		// Count of lines with lastAccess >= at.
		i := sort.Search(len(lasts), func(i int) bool { return lasts[i] >= at })
		return 100 * float64(len(lasts)-i) * lineBytes / float64(sectionBytes)
	}

	s := &Series{}
	textSize := uint32(len(im.Text))
	dataSize := uint32(len(im.Data))
	combined := dataSize + im.BSSSize + heapUsed
	for i := 0; i < n; i++ {
		at := t.now * uint64(i) / uint64(n-1)
		s.Times = append(s.Times, at)
		s.TextPct = append(s.TextPct, pct(textLasts, at, textSize))
		s.DataPct = append(s.DataPct, pct(dataLasts, at, dataSize))
		s.BSSPct = append(s.BSSPct, pct(bssLasts, at, im.BSSSize))
		s.HeapPct = append(s.HeapPct, pct(heapLasts, at, heapUsed))
		// The combined curve counts all three sections' lines against
		// their summed size.
		cnt := 0.0
		for _, ls := range [][]uint64{dataLasts, bssLasts, heapLasts} {
			j := sort.Search(len(ls), func(k int) bool { return ls[k] >= at })
			cnt += float64(len(ls) - j)
		}
		if combined > 0 {
			s.CombinedPct = append(s.CombinedPct, 100*cnt*lineBytes/float64(combined))
		} else {
			s.CombinedPct = append(s.CombinedPct, 0)
		}
	}
	return s
}
