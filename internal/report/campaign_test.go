package report

import (
	"reflect"
	"testing"

	"mpifault/internal/analysis"
	"mpifault/internal/core"
	"mpifault/internal/sampling"
)

// TestNewCampaign: the one constructor of a campaign definition fills in
// the app's ranks, records a scale only off the app's default, names
// regions by their short names, and sizes an adaptive campaign to its
// cap with its image's static priors; Config turns the header back into
// that run, a shard into its entries.
func TestNewCampaign(t *testing.T) {
	h, im, err := NewCampaign(JournalHeader{App: "wavetoy", Seed: 3, Injections: 20, Regions: []string{"Regular Reg.", " heap"}, Scale: 256})
	if err != nil {
		t.Fatal(err)
	}
	want := CampaignHeader("wavetoy", core.Config{
		Ranks: 8, Injections: 20, Seed: 3, Regions: []core.Region{core.RegionRegularReg, core.RegionHeap},
	})
	if !reflect.DeepEqual(h, want) || im != nil {
		t.Errorf("fixed-n campaign at the default scale: header %+v and image %v, want %+v and none", h, im, want)
	}

	h, _, err = NewCampaign(JournalHeader{App: "wavetoy", Seed: 3, Injections: 20, Ranks: 4, Scale: 512, Shard: 1, NumShards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if h.Ranks != 4 || h.Scale != 512 || h.Shard != 1 || h.NumShards != 3 || len(h.Regions) != len(core.Regions()) {
		t.Errorf("sharded campaign off the default scale: header %+v", h)
	}
	cfg, err := h.Config(nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := core.Plan{Regions: core.Regions(), Injections: 20}
	if cfg.Image == nil || cfg.Ranks != 4 || !reflect.DeepEqual(cfg.Entries, plan.Shard(1, 3)) || cfg.NumShards != 0 {
		t.Errorf("shard 1/3: config ranks %d, %d entries, num shards %d", cfg.Ranks, len(cfg.Entries), cfg.NumShards)
	}

	h, im, err = NewCampaign(JournalHeader{App: "minimd", Seed: 3, Adaptive: true, Target: 0.15, Regions: []string{"reg", "text"}})
	if err != nil {
		t.Fatal(err)
	}
	cap, err := sampling.SampleSize(core.DefaultConfidence, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := analysis.AVFPriors(im)
	if err != nil {
		t.Fatal(err)
	}
	priors, err := core.PriorsFromLabels(labels)
	if err != nil {
		t.Fatal(err)
	}
	regions := []core.Region{core.RegionRegularReg, core.RegionText}
	if !h.Adaptive || h.Injections != cap || h.Confidence != core.DefaultConfidence || h.RoundSize != sampling.DefaultRoundSize ||
		!reflect.DeepEqual(h.Priors, core.EffectivePriors(regions, priors)) {
		t.Errorf("adaptive campaign: header %+v, want cap %d and the image's priors", h, cap)
	}
	if cfg, err = h.Config(im); err != nil {
		t.Fatal(err)
	}
	if cfg.Image != im || !cfg.Adaptive || cfg.Injections != cap || !reflect.DeepEqual(CampaignHeader("minimd", cfg), h) {
		t.Errorf("adaptive config %+v does not record header %+v", cfg, h)
	}
}

// TestNewCampaignRefusals: what no campaign can be, and a header no run
// derives from.
func TestNewCampaignRefusals(t *testing.T) {
	for name, spec := range map[string]JournalHeader{
		"adaptive shard":        {App: "wavetoy", Adaptive: true, Shard: 1, NumShards: 2},
		"adaptive with n":       {App: "wavetoy", Adaptive: true, Injections: 5},
		"target without adapt":  {App: "wavetoy", Injections: 5, Target: 0.1},
		"confidence without":    {App: "wavetoy", Injections: 5, Confidence: 0.9},
		"round size without":    {App: "wavetoy", Injections: 5, RoundSize: 10},
		"no injections":         {App: "wavetoy"},
		"unknown app":           {App: "nope", Injections: 5},
		"unknown region":        {App: "wavetoy", Injections: 5, Regions: []string{"nowhere"}},
		"adaptive confidence 2": {App: "wavetoy", Adaptive: true, Confidence: 2},
	} {
		if h, _, err := NewCampaign(spec); err == nil {
			t.Errorf("%s: accepted as %+v", name, h)
		}
	}
	h, _, err := NewCampaign(JournalHeader{App: "wavetoy", Injections: 5, Regions: []string{"reg"}})
	if err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(*JournalHeader){
		"shard out of range": func(h *JournalHeader) { h.Shard, h.NumShards = 3, 3 },
		"priors short":       func(h *JournalHeader) { h.Adaptive = true },
		"unknown region":     func(h *JournalHeader) { h.Regions = []string{"nowhere"} },
	} {
		bad := h
		edit(&bad)
		if _, err := bad.Config(nil); err == nil {
			t.Errorf("%s: Config accepted %+v", name, bad)
		}
	}
}
