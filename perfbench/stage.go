package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/essat/essat"
	"github.com/essat/essat/internal/experiment"
	"github.com/essat/essat/internal/phy"
	"github.com/essat/essat/internal/routing"
	"github.com/essat/essat/internal/serve"
	"github.com/essat/essat/internal/topology"
)

// job is one scenario run through the explicit build → simulate →
// collect stages, with the host time of each stage.
type job struct {
	sc  experiment.Scenario
	res *experiment.Result
	err error

	build, simulate, collect time.Duration
	// pending is the number of events still queued when Simulate
	// returned (the scheduler's end-of-run population).
	pending int
	// digest is the result's pinned digest and records its number of
	// sink records; the records themselves are dropped once counted, so
	// the benchmark does not hold every run's payload while it measures
	// memory.
	digest  string
	records int
}

// latency is the job's host time over all three stages.
func (j *job) latency() time.Duration { return j.build + j.simulate + j.collect }

// stagePass runs jobs on workers goroutines, each with its own arena,
// and fingerprints each result with dig. With cache non-nil every arena
// serves deployments from it (the figure drivers' configuration); with
// cache nil every job gets a fresh arena, so every build is cold. Spans
// go under parent.
func stagePass(jobs []*job, workers int, cache *experiment.DeployCache, dig func(*experiment.Result) string, tr *tracer, parent int) {
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var arena *essat.Arena
			if cache != nil {
				arena = essat.NewArenaWithCache(cache)
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				a := arena
				if a == nil {
					a = essat.NewArena()
				}
				runJob(jobs[i], a, dig, tr, parent)
			}
		}()
	}
	wg.Wait()
}

// runJob executes one job on arena through the public stage API.
func runJob(j *job, a *essat.Arena, dig func(*experiment.Result) string, tr *tracer, parent int) {
	js := tr.begin("job", parent)
	defer tr.end(js)

	sp := tr.begin("experiment.BuildWith", js)
	t0 := time.Now()
	s, err := essat.BuildWith(a, j.sc)
	t1 := time.Now()
	tr.end(sp)
	j.build = t1.Sub(t0)
	if err != nil {
		j.err = err
		return
	}

	sp = tr.begin("experiment.Simulate", js)
	s.Simulate()
	t2 := time.Now()
	tr.end(sp)
	j.simulate = t2.Sub(t1)
	j.pending = s.Eng.Pending()

	sp = tr.begin("experiment.Collect", js)
	j.res = s.Collect()
	j.collect = time.Since(t2)
	tr.end(sp)
	j.digest = dig(j.res)
	j.records = len(j.res.Records)
	j.res.Records, j.res.Trace = nil, nil
	if j.res.Audit != nil && j.res.Audit.Total > 0 {
		j.err = fmt.Errorf("%s seed %d: %d invariant violations, first: %s",
			j.res.Protocol, j.res.Seed, j.res.Audit.Total, j.res.Audit.Violations[0])
	}
}

// passTotals sums a pass's stage times and simulated events.
type passTotals struct {
	build, simulate, collect time.Duration
	events                   uint64
}

func totals(jobs []*job) passTotals {
	var t passTotals
	for _, j := range jobs {
		t.build += j.build
		t.simulate += j.simulate
		t.collect += j.collect
		if j.res != nil {
			t.events += j.res.Events
		}
	}
	return t
}

// resultDigest fingerprints every deterministic field of a run's
// outcome the benchmark pins: event count, duty cycle, latency,
// coverage, tree shape, channel and MAC counters, energy, sink records
// and, when the run was audited, the auditor's trace digest.
func resultDigest(r *experiment.Result) string {
	audit := ""
	if r.Audit != nil {
		audit = fmt.Sprintf("%s/%d/%d", r.Audit.Digest, r.Audit.Events, r.Audit.Total)
	}
	return digest(fmt.Sprintf("%s|%d|%d|%v|%v|%v|%v|%d|%d|%+v|%d|%d|%d|%d|%d|%d|%v|%v|%d|%s",
		r.Protocol, r.Seed, r.Events, r.DutyCycle, r.Latency, r.LatencyByClass, r.Coverage,
		r.TreeSize, r.MaxRank, r.Channel, r.MACSent, r.MACFailed, r.MACRetries,
		r.Timeouts, r.PassThroughs, r.PhaseShifts, r.EnergyMean, r.EnergyMax,
		len(r.Records), audit))
}

// responseDigest fingerprints the deterministic fields of a serve
// response (everything except the wall-clock elapsed_ms).
func responseDigest(r *serve.RunResponse) string {
	c := *r
	c.ElapsedMs = 0
	return digest(fmt.Sprintf("%+v|%d", c, len(c.Records)))
}

// asResponse converts a run's result to the serve response fields the
// server derives from it, for comparing staged runs with responses.
func asResponse(r *experiment.Result) *serve.RunResponse {
	return &serve.RunResponse{
		Protocol:      string(r.Protocol),
		Seed:          r.Seed,
		TreeSize:      r.TreeSize,
		MaxRank:       r.MaxRank,
		DutyCycle:     r.DutyCycle,
		LatencyMeanMs: float64(r.Latency.Mean) / float64(time.Millisecond),
		LatencyP95Ms:  float64(r.Latency.P95) / float64(time.Millisecond),
		Coverage:      r.Coverage,
		Events:        r.Events,
		Records:       r.Records,
	}
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// deployTimes is the deployment layer measured directly: topology
// placement and routing-tree flood for each distinct deployment among
// scs, built exactly as a cold BuildWith builds them.
type deployTimes struct {
	topology, flood time.Duration
	treeSize        int
}

func deployPass(scs []experiment.Scenario, tr *tracer, parent int) (deployTimes, error) {
	var d deployTimes
	seen := map[string]bool{}
	for _, sc := range scs {
		key := fmt.Sprint(sc.Seed, sc.Topology, sc.BFSTree, sc.TreeMaxDist, sc.Propagation, sc.PropagationParams)
		if seen[key] {
			continue
		}
		seen[key] = true
		prop, err := phy.NewPropagation(sc.Propagation, sc.PropagationParams)
		if err != nil {
			return d, err
		}
		cfg := sc.Topology
		cfg.NeighborRange = prop.MaxRange(cfg.Range)

		sp := tr.begin("topology.New", parent)
		t0 := time.Now()
		topo, err := topology.New(rand.New(rand.NewSource(sc.Seed)), cfg)
		t1 := time.Now()
		tr.end(sp)
		if err != nil {
			return d, err
		}

		sp = tr.begin("routing.Build", parent)
		var tree *routing.Tree
		if sc.BFSTree {
			tree, err = routing.BuildBFS(topo, topo.CentralNode(), sc.TreeMaxDist)
		} else {
			fcfg := routing.DefaultFloodConfig()
			fcfg.MaxDist = sc.TreeMaxDist
			fcfg.ChannelCfg.Propagation = prop
			if !phy.IsDisc(prop) {
				fcfg.Rounds = 3
			}
			tree, err = routing.BuildFlood(sc.Seed+1, topo, topo.CentralNode(), fcfg)
		}
		t2 := time.Now()
		tr.end(sp)
		if err != nil {
			return d, err
		}
		d.topology += t1.Sub(t0)
		d.flood += t2.Sub(t1)
		d.treeSize += tree.Size()
	}
	return d, nil
}
