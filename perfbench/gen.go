package main

import (
	_ "embed"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/essat/essat/internal/experiment"
)

// Every workload input comes from this file. Inputs never carry a
// parallelism block: the benchmark measures the sequential engine only.
//
// The names below are spelled out rather than read from the registries
// so that registering a new protocol or model later does not silently
// change the inputs, and with them the pinned outputs.
var (
	protocols   = []string{"DTS-SS", "STS-SS", "NTS-SS", "SPAN", "PSM", "SYNC", "TMAC"}
	topologies  = []string{"uniform", "grid", "clusters", "corridor"}
	channels    = []string{"disc", "shadowing", "dual-disc"}
	radios      = []string{"paper", "cc1000", "cc2420"}
	dynPatterns = []string{"calm", "crash", "linkloss", "burst", "crash+burst"}
)

// paperGridScenarios is the fig3 grid (base rate 1–5 Hz, one query per
// class) and the fig4 grid (0.2 Hz, 1–10 queries per class) over the
// duty-cycle protocols at QuickOptions scale, built exactly as the
// figure drivers build them: 110 runs of 80 nodes × 40 sim-s.
func paperGridScenarios() []experiment.Scenario {
	o := experiment.QuickOptions()
	protos := []experiment.Protocol{experiment.DTSSS, experiment.STSSS, experiment.NTSSS, experiment.PSM, experiment.SPAN}
	scenario := func(p experiment.Protocol, seed int64) experiment.Scenario {
		sc := experiment.DefaultScenario(p, seed)
		sc.Duration = o.Duration
		sc.Topology.NumNodes = o.Nodes
		return sc
	}
	var out []experiment.Scenario
	for _, p := range protos {
		for _, rate := range []float64{1, 2, 3, 4, 5} {
			for seed := int64(1); seed <= int64(o.Seeds); seed++ {
				sc := scenario(p, seed)
				sc.Queries = experiment.QueryClasses(rand.New(rand.NewSource(seed*7919)), rate, 1, 10*time.Second)
				out = append(out, sc)
			}
		}
		for _, n := range []int{1, 2, 4, 6, 8, 10} {
			for seed := int64(1); seed <= int64(o.Seeds); seed++ {
				sc := scenario(p, seed)
				sc.Queries = experiment.QueryClasses(rand.New(rand.NewSource(seed*104729)), 0.2, n, 10*time.Second)
				out = append(out, sc)
			}
		}
	}
	return out
}

// hugeJSON is testdata/huge.json as of the benchmark's baseline commit,
// copied so that later edits to the test tier do not change this input.
//
//go:embed inputs/huge.json
var hugeJSON []byte

// hugeDuration shortens the 10k-node run. At 4 sim-s the run spends
// 2 s in setup and 2 s in steady query traffic, so the simulate stage
// still lasts about a second once the scheduler's coarse-slot insert
// stops being quadratic.
const hugeDuration = 4 * time.Second

func hugeScenario() (experiment.Scenario, error) {
	spec, err := experiment.ParseSpec(hugeJSON)
	if err != nil {
		return experiment.Scenario{}, err
	}
	spec.Duration = experiment.Dur(hugeDuration)
	return spec.Scenario()
}

// Pool sizes. The mixed-campaign pool holds campaignVariants specs per
// cell of the protocol × topology × channel × radio cross-product; the
// serve-open pool holds one paper-scale spec per protocol and per-request
// seed. Every pool entry's output is pinned, so a workload seed can pick
// any subset of a pool and still be checked.
const (
	campaignCells    = 7 * 4 * 3 * 3
	campaignVariants = 4
	serveSeeds       = 64
)

// campaignSpec is entry i of the mixed-campaign pool: cell i/variants
// fixes protocol, topology, channel and radio, and draws the scale (node
// count, area, run length, query load) that all its variants share; the
// rest (simulation seed, query phases, model knobs, dynamics pattern) is
// drawn per entry. Which variant a seed picks so changes what a cell
// computes but hardly how much, and every campaign holds the same mix of
// small and large specs. Odd cells request metric sinks, so every
// campaign has exactly half its specs with sinks.
func campaignSpec(i int) *experiment.Spec {
	cell, variant := i/campaignVariants, i%campaignVariants
	proto := protocols[cell%7]
	topo := topologies[(cell/7)%4]
	channel := channels[(cell/28)%3]
	prof := radios[(cell/84)%3]
	dyn := dynPatterns[(cell+variant)%len(dynPatterns)]
	scale := rand.New(rand.NewSource(0x5ca1_e000 + int64(cell)))
	rng := rand.New(rand.NewSource(0x5eed_ca4d + int64(i)))

	nodes := 24 + scale.Intn(25)
	// Density stays at or above the paper's 80 nodes per 500 m square
	// with 125 m range, so deployments are multihop and connected.
	area := round2(500 * math.Sqrt(float64(nodes)/80) * (0.85 + 0.2*scale.Float64()))
	dur := time.Duration(3+scale.Intn(4)) * time.Second
	s := &experiment.Spec{
		Protocol: proto,
		Seed:     10_000 + int64(i),
		Nodes:    nodes,
		Area:     area,
		Duration: experiment.Dur(dur),
		Workload: &experiment.WorkloadSpec{
			BaseRate: round2(1 + 2*scale.Float64()),
			PerClass: 1 + scale.Intn(2),
			PhaseMax: experiment.Dur(time.Duration(500+rng.Intn(1000)) * time.Millisecond),
		},
		Audit: true,
	}
	switch topo {
	case "grid":
		s.Topology = topo
		s.TopologyParams = map[string]float64{"jitter": round2(25 * rng.Float64())}
	case "clusters":
		s.Topology = topo
		s.TopologyParams = map[string]float64{"clusters": float64(3 + rng.Intn(4)), "spread": round2(area/10 + rng.Float64()*area/10)}
	case "corridor":
		s.Topology = topo
		s.TopologyParams = map[string]float64{"width": round2(area/5 + rng.Float64()*area/5)}
	}
	switch channel {
	case "shadowing":
		s.Channel = &experiment.ChannelSpec{Model: channel, Params: map[string]float64{
			"sigma": round2(2 + 4*rng.Float64()), "pathloss": round2(2.5 + 1.5*rng.Float64())}}
	case "dual-disc":
		s.Channel = &experiment.ChannelSpec{Model: channel, Params: map[string]float64{
			"inner": round2(0.6 + 0.3*rng.Float64()), "outer": round2(1.0 + 0.4*rng.Float64())}}
	}
	if prof != "paper" {
		s.Radio = &experiment.RadioSpec{Profile: prof}
	}

	// Disturbances start after the first second and end inside the run.
	at := func() experiment.Duration {
		return experiment.Dur(time.Second + time.Duration(rng.Int63n(int64(dur/2))))
	}
	crash := experiment.DynamicsSpec{Kind: "crash", At: at(),
		Duration: experiment.Dur(time.Duration(500+rng.Intn(1500)) * time.Millisecond), Count: 1 + rng.Intn(2)}
	burst := experiment.DynamicsSpec{Kind: "burst", At: at(),
		Duration: experiment.Dur(time.Duration(1500+rng.Intn(1500)) * time.Millisecond),
		Period:   experiment.Dur(time.Duration(300+rng.Intn(700)) * time.Millisecond), Queries: 1 + rng.Intn(2)}
	linkloss := experiment.DynamicsSpec{Kind: "linkloss", At: at(),
		Duration: experiment.Dur(time.Duration(1000+rng.Intn(2000)) * time.Millisecond),
		Peak:     round2(0.2 + 0.6*rng.Float64()), Steps: 4 + rng.Intn(5)}
	switch dyn {
	case "crash":
		s.Dynamics = []experiment.DynamicsSpec{crash}
	case "linkloss":
		s.Dynamics = []experiment.DynamicsSpec{linkloss}
	case "burst":
		s.Dynamics = []experiment.DynamicsSpec{burst}
	case "crash+burst":
		s.Dynamics = []experiment.DynamicsSpec{crash, burst}
	}

	if cell%2 == 1 {
		if cell/2%2 == 0 {
			s.Results = &experiment.ResultsSpec{Sinks: []experiment.SinkSpec{
				{Name: "energy"},
				{Name: "timeseries", Params: map[string]float64{"bucket_ms": float64(250 * (1 + rng.Intn(4)))}},
			}}
		} else {
			s.Results = &experiment.ResultsSpec{Sinks: []experiment.SinkSpec{{Name: "jsonl"}}}
		}
	}
	return s
}

// campaignPick returns, for a workload seed, one pool entry per cell:
// every campaign covers the whole cross-product once, and the seed
// chooses each cell's variant.
func campaignPick(seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, campaignCells)
	for c := range out {
		out[c] = c*campaignVariants + rng.Intn(campaignVariants)
	}
	return out
}

// serveLevels are the serve-open query loads (Q1 base rate in Hz,
// queries per class); pool entry i uses level (i/7)%8.
var serveLevels = []struct {
	rate     float64
	perClass int
}{{0.5, 1}, {1, 1}, {2, 1}, {3, 1}, {0.5, 2}, {1, 2}, {2, 2}, {1, 3}}

// serveSpec is entry i of the serve-open pool: a paper-scale spec (80
// nodes, 500 m, three query classes) for protocol i%7 with the
// per-request seed 1+i/7 and load level (i/7)%8.
func serveSpec(i int) *experiment.Spec {
	seedIdx := i / len(protocols)
	lv := serveLevels[seedIdx%len(serveLevels)]
	return &experiment.Spec{
		Protocol: protocols[i%len(protocols)],
		Seed:     1 + int64(seedIdx),
		Duration: experiment.Dur(serveDuration),
		Workload: &experiment.WorkloadSpec{
			BaseRate: lv.rate,
			PerClass: lv.perClass,
			PhaseMax: experiment.Dur(serveDuration / 2),
		},
	}
}

// serveDuration is the simulated length of each serve-open request.
const serveDuration = 5 * time.Second

// serveBlock is the number of (protocol, load level) combinations. The
// schedule is drawn in blocks that hold each combination once, so every
// session offers the same mix of cheap and expensive runs, and the seed
// varies their order, their per-request seeds and their arrival times.
const serveBlock = 7 * 8

// serveSchedule draws n requests (a multiple of serveBlock) for a
// workload seed: a pool entry for each and its arrival time in units of
// the mean gap between arrivals. The arrivals are a unit-rate Poisson
// process conditioned on n arrivals in n units (sorted uniform draws);
// dividing by the offered rate gives due times, so the inputs do not
// depend on the rate and the session length is fixed by it.
func serveSchedule(seed int64, n int) (entries []int, arrivals []float64) {
	rng := rand.New(rand.NewSource(seed))
	entries = make([]int, 0, n)
	for len(entries) < n {
		for _, c := range rng.Perm(serveBlock) {
			proto, level := c%len(protocols), c/len(protocols)
			seedIdx := level + len(serveLevels)*rng.Intn(serveSeeds/len(serveLevels))
			entries = append(entries, seedIdx*len(protocols)+proto)
		}
	}
	arrivals = make([]float64, n)
	for i := range arrivals {
		arrivals[i] = rng.Float64() * float64(n)
	}
	sort.Float64s(arrivals)
	return entries, arrivals
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }
