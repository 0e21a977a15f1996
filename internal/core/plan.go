package core

import (
	"fmt"
	"strconv"
	"strings"
)

// Plan is the deterministic enumeration of a campaign's injection
// experiments.  A campaign at a given (Regions, Injections, Seed) is a
// fixed sequence of experiments — entry g of the plan is experiment
// Index g%Injections of region Regions[g/Injections], and its random
// stream is Derive(region, index) from the campaign seed — so the plan
// can be partitioned as "shard i of K" with no coordination: each shard
// takes every K-th entry, and the union over all shards is exactly the
// single-process plan.  Which shard runs an experiment has no effect on
// its outcome.
type Plan struct {
	Regions    []Region
	Injections int
}

// PlanEntry identifies one experiment of a plan.  (Region, Index) is the
// label pair the campaign seed is derived with, so an entry fully
// determines the experiment's random stream.
type PlanEntry struct {
	Region Region
	Index  int
}

// ID returns the entry's stable string identity, e.g. "reg/17", used as
// the experiment key in checkpoint journals.
func (e PlanEntry) ID() string {
	return e.Region.Short() + "/" + strconv.Itoa(e.Index)
}

// ParseEntryID inverts PlanEntry.ID.
func ParseEntryID(id string) (PlanEntry, error) {
	slash := strings.LastIndexByte(id, '/')
	if slash < 0 {
		return PlanEntry{}, fmt.Errorf("core: malformed experiment id %q", id)
	}
	region, err := ParseRegion(id[:slash])
	if err != nil {
		return PlanEntry{}, fmt.Errorf("core: malformed experiment id %q: %v", id, err)
	}
	idx, err := strconv.Atoi(id[slash+1:])
	if err != nil || idx < 0 {
		return PlanEntry{}, fmt.Errorf("core: malformed experiment id %q", id)
	}
	return PlanEntry{Region: region, Index: idx}, nil
}

// Total returns the number of experiments in the plan.
func (p Plan) Total() int {
	return len(p.Regions) * p.Injections
}

// Entry returns plan entry g, for g in [0, Total()).
func (p Plan) Entry(g int) PlanEntry {
	return PlanEntry{
		Region: p.Regions[g/p.Injections],
		Index:  g % p.Injections,
	}
}

// Shard returns the entries of shard `shard` of `of`: every of-th entry
// starting at `shard`.  Shards are pairwise disjoint and their union is
// the complete plan; Shard(0, 1) is the whole plan.
func (p Plan) Shard(shard, of int) []PlanEntry {
	return shardOf(p.Range(0, p.Total()), shard, of)
}

// shardOf is the shard filter over any entry list — the plan, a lease,
// an adaptive round: every of-th entry starting at `shard`.
func shardOf(entries []PlanEntry, shard, of int) []PlanEntry {
	if of <= 1 {
		return entries
	}
	out := make([]PlanEntry, 0, (len(entries)-shard+of-1)/of)
	for g := shard; g < len(entries); g += of {
		out = append(out, entries[g])
	}
	return out
}

// Range returns the contiguous plan entries [start, end) in plan order.
// Because every experiment's random stream is derived from (seed,
// region, index) alone, any caller can run any range and produce the
// identical outcomes.  Bounds are clamped to the plan.
func (p Plan) Range(start, end int) []PlanEntry {
	if start < 0 {
		start = 0
	}
	if total := p.Total(); end > total {
		end = total
	}
	if start >= end {
		return nil
	}
	entries := make([]PlanEntry, 0, end-start)
	for g := start; g < end; g++ {
		entries = append(entries, p.Entry(g))
	}
	return entries
}

// ParseShard parses a command-line shard spec "i/K" (e.g. "0/3") into
// (shard, numShards), validating 0 <= i < K.
func ParseShard(s string) (shard, of int, err error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return 0, 0, fmt.Errorf("core: shard spec %q not of the form i/K", s)
	}
	shard, err1 := strconv.Atoi(s[:slash])
	of, err2 := strconv.Atoi(s[slash+1:])
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("core: shard spec %q not of the form i/K", s)
	}
	if of <= 0 || shard < 0 || shard >= of {
		return 0, 0, fmt.Errorf("core: shard spec %q out of range (want 0 <= i < K)", s)
	}
	return shard, of, nil
}
