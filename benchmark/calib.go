package main

import (
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The host this benchmark runs on changes speed by a fifth or more over
// minutes (other tenants of the same machine), which no run of 20 s can
// average out.  So every campaign is bracketed by a calibration: a fixed
// piece of CPU work on two goroutines, the load a campaign puts on the
// host.  A time measured between two calibrations is scaled by
// calibRefS over their mean, which states it as seconds on the reference
// host at its usual speed.
//
// calibIters sizes one calibration; calibRefS is what it takes on the
// reference host (2-core Xeon 2.1 GHz) while table_ckpt's campaign takes
// its usual 2.5 s there.
const (
	calibIters = 1_500_000
	calibRefS  = 0.150
)

// hostScale is the factor that turns a time measured between two
// calibrations into seconds at the reference host speed.
func hostScale(before, after float64) float64 {
	return calibRefS / ((before + after) / 2)
}

var calibSink uint64

const calibTable = 1 << 22 // uint32 entries: 16 MiB

// calibWork is a fixed piece of work that shares no code with the program
// under test: n steps of a chain of dependent loads through a 16 MiB
// table, with a data-dependent switch, a store and a block copy now and
// then.  Like a campaign (guest memories of several MiB per job, copied
// on every restore) it lives beyond the core's own caches, so it slows
// down with the campaigns when other tenants take shared cache and
// memory bandwidth; a loop that stays inside the private caches moved
// only 0.6-0.7 % for every 1 % the campaigns moved.
func calibWork(mem, buf []uint32, n int) uint64 {
	var acc uint64
	idx := uint32(1)
	for i := 0; i < n; i++ {
		v := mem[idx&(calibTable-1)]
		switch v & 3 {
		case 0:
			acc += uint64(v)
		case 1:
			acc ^= uint64(v) << 3
		case 2:
			mem[(idx+v)&(calibTable-1)] += uint32(acc)
		default:
			acc = acc*31 + uint64(float64(v)*1.0001)
		}
		idx = v ^ uint32(i)*40503
		if i&0x3fff == 0 {
			copy(buf, mem[(idx&(calibTable-1))&^uint32(len(buf)-1):])
			acc += uint64(buf[idx&uint32(len(buf)-1)])
		}
	}
	return acc
}

// calibrate times the fixed work on two goroutines, the load every
// campaign puts on the host, and returns the seconds it took.  Filling
// the tables (page faults, the kernel zeroing memory) is not timed.
func calibrate() float64 {
	var filled, done sync.WaitGroup
	var mu sync.Mutex
	start := make(chan struct{})
	for g := 0; g < 2; g++ {
		filled.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			mem := make([]uint32, calibTable)
			for i := range mem {
				mem[i] = uint32(i) * 2654435761
			}
			buf := make([]uint32, 1<<18)
			for i := range buf {
				buf[i] = 1
			}
			filled.Done()
			<-start
			v := calibWork(mem, buf, calibIters)
			mu.Lock()
			calibSink += v
			mu.Unlock()
		}()
	}
	filled.Wait()
	t0 := time.Now()
	close(start)
	done.Wait()
	return time.Since(t0).Seconds()
}

// calibrateInChild runs calibrate in a fresh copy of this program.
func calibrateInChild() (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(self, "-calibrate").Output()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}
