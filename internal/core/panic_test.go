package core_test

import (
	"regexp"
	"strconv"
	"sync"
	"testing"

	"mpifault/internal/core"
	"mpifault/internal/vm"
)

// TestExperimentPanicFailsLoudly: a host panic inside one experiment — here
// raised as the campaign builds its eighth machine after the golden run's
// one per rank — fails the campaign
// with an error naming that experiment's region/index, seed, rank and
// trigger, where the process would otherwise die with a bare stack.  On one
// worker, the experiments before it still reach OnExperiment, in plan
// order, and none after it runs; on two, the campaign fails the same way.
func TestExperimentPanicFailsLoudly(t *testing.T) {
	im, ranks := buildApp(t, "wavetoy")
	name := regexp.MustCompile(`^core: experiment heap/(\d) \(seed 7, rank \d+, trigger \d+\) panicked: host bug\n`)
	for _, workers := range []int{1, 2} {
		var mu sync.Mutex
		built := 0
		var delivered []int
		res, err := core.RunBuilt(core.Config{
			Image: im, Ranks: ranks, Injections: 8, Seed: 7, Parallelism: workers,
			Regions:      []core.Region{core.RegionHeap},
			OnExperiment: func(e core.Experiment) { delivered = append(delivered, e.Index) },
		}, func(*vm.Machine) {
			mu.Lock()
			built++
			n := built
			mu.Unlock()
			if n == ranks+8 {
				panic("host bug")
			}
		})
		if res != nil || err == nil {
			t.Fatalf("%d workers: campaign survived the panic: %+v, %v", workers, res, err)
		}
		m := name.FindStringSubmatch(err.Error())
		if m == nil {
			t.Fatalf("%d workers: error does not name the experiment:\n%v", workers, err)
		}
		failed, _ := strconv.Atoi(m[1])
		if workers == 1 && (failed == 0 || len(delivered) != failed || delivered[failed-1] != failed-1) {
			t.Errorf("delivered %v around heap/%d's failure, want exactly every one before it", delivered, failed)
		}
	}
}
