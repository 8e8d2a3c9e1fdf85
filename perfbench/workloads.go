package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/essat/essat/internal/campaign"
	"github.com/essat/essat/internal/corpus"
	"github.com/essat/essat/internal/experiment"
	"github.com/essat/essat/internal/serve"
)

// workload is one named benchmark input. A round runs the workload's
// fixed work once; tr is nil on untraced rounds.
type workload interface {
	round(tr *tracer) (*roundResult, error)
	// scenarios lists the runs of one round's staged pass, for the
	// traced run's deployment and auditor probes.
	scenarios() []experiment.Scenario
	// sharedCache reports whether the staged pass serves deployments
	// from one cache shared by its workers.
	sharedCache() bool
	// maxRounds bounds the rounds of one phase (0 = as many as fit).
	maxRounds() int
}

// roundResult is what one round measured.
type roundResult struct {
	// wall is the host time of the workload's fixed work.
	wall time.Duration
	// jobs is the round's staged pass: every run through BuildWith,
	// Simulate and Collect with per-stage host times.
	jobs []*job
	// cacheHits and cacheMisses are the staged pass's deployment cache
	// outcomes.
	cacheHits, cacheMisses uint64
	// lat holds per-operation latencies: a request's time from its due
	// time to its response for serve-open, a run's host time otherwise.
	lat []time.Duration
	// attempted and failed count operations; errs describes failures.
	attempted, failed int
	errs              []error
	// layer holds per-layer values only this workload measures.
	layer map[string]float64
	// peakRSS is the process's resident-memory high-water mark over the
	// round, in MB; allocs counts heap objects allocated by the staged
	// pass.
	peakRSS float64
	allocs  uint64
}

func (r *roundResult) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err)
	}
}

// stageRound runs jobs as the round's staged pass and checks each
// output against its pin.
func stageRound(r *roundResult, jobs []*job, keys []int, name string, pins pinSet, workers int, cache *experiment.DeployCache, tr *tracer, parent int) {
	before := heapAllocs()
	stagePass(jobs, workers, cache, pinDigest(name), tr, parent)
	r.allocs = heapAllocs() - before
	if cache != nil {
		r.cacheHits, r.cacheMisses = cache.Stats()
	}
	r.jobs = jobs
	for i, j := range jobs {
		r.attempted++
		if j.err != nil {
			r.fail(j.err)
			continue
		}
		if err := pins.check(name, keys[i], j.res.Events, j.digest); err != nil {
			r.fail(err)
		}
	}
}

// paperGrid runs the fig3 + fig4 grid on nproc workers, each with its
// own arena, all sharing one deployment cache per round, as the figure
// drivers do. The workload seed permutes the order jobs are handed to
// workers.
type paperGrid struct {
	scs     []experiment.Scenario
	order   []int
	workers int
	pins    pinSet
}

func newPaperGrid(seed int64, workers int, pins pinSet) *paperGrid {
	scs := paperGridScenarios()
	return &paperGrid{scs: scs, order: rand.New(rand.NewSource(seed)).Perm(len(scs)), workers: workers, pins: pins}
}

func (w *paperGrid) scenarios() []experiment.Scenario { return w.scs }
func (w *paperGrid) sharedCache() bool                { return true }
func (w *paperGrid) maxRounds() int                   { return 0 }

func (w *paperGrid) round(tr *tracer) (*roundResult, error) {
	r := &roundResult{}
	jobs := make([]*job, len(w.order))
	for i, k := range w.order {
		jobs[i] = &job{sc: w.scs[k]}
	}
	rs := tr.begin("round", 0)
	t0 := time.Now()
	stageRound(r, jobs, w.order, "paper-grid", w.pins, w.workers, experiment.NewDeployCache(0), tr, rs)
	r.wall = time.Since(t0)
	tr.end(rs)
	for _, j := range jobs {
		r.lat = append(r.lat, j.latency())
	}
	return r, nil
}

// huge10k is one cold sequential run of the 10k-node tier: a fresh
// arena and no deployment cache every round.
type huge10k struct {
	sc   experiment.Scenario
	pins pinSet
}

func (w *huge10k) scenarios() []experiment.Scenario { return []experiment.Scenario{w.sc} }
func (w *huge10k) sharedCache() bool                { return false }
func (w *huge10k) maxRounds() int                   { return 0 }

func (w *huge10k) round(tr *tracer) (*roundResult, error) {
	r := &roundResult{}
	jobs := []*job{{sc: w.sc}}
	rs := tr.begin("round", 0)
	t0 := time.Now()
	stageRound(r, jobs, []int{0}, "huge-10k", w.pins, 1, nil, tr, rs)
	r.wall = time.Since(t0)
	tr.end(rs)
	r.lat = []time.Duration{jobs[0].latency()}
	return r, nil
}

// mixedCampaign runs one campaign over a generated corpus through
// campaign.Run (journal, auditor forced on, merge), then the same specs
// as a staged pass whose results are pinned and compared with the
// campaign's journaled records.
type mixedCampaign struct {
	items   []corpus.Item
	keys    []int
	scs     []experiment.Scenario
	workers int
	dir     string
	rounds  int
	pins    pinSet
}

func newMixedCampaign(seed int64, workers int, dir string, pins pinSet) (*mixedCampaign, error) {
	w := &mixedCampaign{keys: campaignPick(seed), workers: workers, dir: dir, pins: pins}
	for idx, k := range w.keys {
		spec := campaignSpec(k)
		sc, err := spec.Scenario()
		if err != nil {
			return nil, fmt.Errorf("campaign pool entry %d: %w", k, err)
		}
		w.scs = append(w.scs, sc)
		w.items = append(w.items, corpus.Item{Index: idx, ID: fmt.Sprintf("%04d-pool%04d", idx, k), Spec: spec})
	}
	return w, nil
}

func (w *mixedCampaign) scenarios() []experiment.Scenario { return w.scs }
func (w *mixedCampaign) sharedCache() bool                { return true }
func (w *mixedCampaign) maxRounds() int                   { return 0 }

func (w *mixedCampaign) round(tr *tracer) (*roundResult, error) {
	w.rounds++
	dir := filepath.Join(w.dir, fmt.Sprintf("campaign-%d", w.rounds))
	if err := corpus.Write(dir, corpus.Config{Count: len(w.items)}, w.items, 1); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	r := &roundResult{layer: map[string]float64{}}
	recs := make([]campaign.Record, len(w.items))
	var mu sync.Mutex
	rs := tr.begin("round", 0)
	sp := tr.begin("campaign.Run", rs)
	t0 := time.Now()
	sum, err := campaign.Run(context.Background(), dir, campaign.RunConfig{
		Workers: w.workers,
		// One journal batch per campaign, so the journal fsyncs at its
		// checkpoint and close only: on a shared host a batch fsync every
		// 16 records times the disk's queue, not the campaign's work.
		SyncEvery: len(w.items),
		OnRecord: func(rec campaign.Record) {
			rec.Records = nil // compared through the staged run's digest
			mu.Lock()
			recs[rec.Index] = rec
			mu.Unlock()
		},
	})
	r.wall = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}

	sp = tr.begin("stage pass", rs)
	t1 := time.Now()
	stageRound(r, newJobs(w.scs), w.keys, "mixed-campaign", w.pins, w.workers, experiment.NewDeployCache(0), tr, sp)
	staged := time.Since(t1)
	tr.end(sp)
	tr.end(rs)

	for i, j := range r.jobs {
		r.lat = append(r.lat, j.latency())
		rec := recs[i]
		r.attempted++
		switch {
		case rec.Op != campaign.OpDone:
			r.fail(fmt.Errorf("campaign item %s: %s %s", w.items[i].ID, rec.FailKind, rec.Error))
		case j.res != nil && (j.res.Audit == nil || rec.Digest != j.res.Audit.Digest || rec.Events != j.res.Events):
			r.fail(fmt.Errorf("campaign item %s: journaled digest %s differs from the staged run", w.items[i].ID, rec.Digest))
		}
	}
	r.layer["campaign.overhead_s"] = (r.wall - staged).Seconds()
	r.layer["campaign.retries"] = float64(sum.Retries)
	return r, nil
}

// serveOpen measures the server's capacity, then posts an open-loop
// schedule of paper-scale specs to an in-process serve.Server over
// loopback at a fixed share of that capacity, then runs the same specs
// as a staged pass. nproc sender goroutines each take the next request
// in due order, wait for its due time and post it, so a slow server
// makes later requests late; latency counts from the due time.
//
// The offered rate follows the measured capacity so that utilization,
// not the host's speed of the moment, is what the workload fixes: on a
// shared host whose speed drifts by 20 %, a fixed rate swings
// utilization enough that queueing multiplies the drift in p95.
type serveOpen struct {
	load     float64
	workers  int
	pins     pinSet
	keys     []int
	arrivals []float64
	bodies   [][]byte
	scs      []experiment.Scenario
}

// serveQueue is the server's wait-queue bound. It exceeds what nproc
// senders can ever have outstanding, so shedding would mean the server
// misbehaves, not that the benchmark overloaded it.
const serveQueue = 64

// serveCalibration is the number of requests posted back to back, on a
// server of their own, to measure capacity. The session's length and
// load follow its estimate, so the probe runs long enough to average over
// second-long swings in a shared host's speed.
const serveCalibration = 8 * serveBlock

func newServeOpen(seed int64, load float64, requests, workers int, pins pinSet) (*serveOpen, error) {
	w := &serveOpen{load: load, workers: workers, pins: pins}
	w.keys, w.arrivals = serveSchedule(seed, requests)
	for _, k := range w.keys {
		spec := serveSpec(k)
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		sc, err := spec.Scenario()
		if err != nil {
			return nil, err
		}
		w.bodies = append(w.bodies, body)
		w.scs = append(w.scs, sc)
	}
	return w, nil
}

func (w *serveOpen) scenarios() []experiment.Scenario { return w.scs }
func (w *serveOpen) sharedCache() bool                { return true }
func (w *serveOpen) maxRounds() int                   { return 1 }

// posted is what one session measured per request.
type posted struct {
	lat, lag, overhead []time.Duration
	errs               []error
	wall               time.Duration
	stats              serve.Stats
}

// session starts a server, posts the first n requests with request i
// due at due(i) after the start, and stops the server.
func (w *serveOpen) session(n int, due func(i int) time.Duration, tr *tracer, parent int) (*posted, error) {
	srv := serve.New(serve.Config{Workers: w.workers, Queue: serveQueue})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	transport := &http.Transport{MaxConnsPerHost: w.workers, MaxIdleConnsPerHost: w.workers}
	client := &http.Client{Transport: transport}
	url := "http://" + ln.Addr().String() + "/run"

	p := &posted{
		lat: make([]time.Duration, n), lag: make([]time.Duration, n),
		overhead: make([]time.Duration, n), errs: make([]error, n),
	}
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < w.workers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				at := start.Add(due(i))
				time.Sleep(time.Until(at))
				sp := tr.begin("serve.POST /run", parent)
				sent := time.Now()
				resp, err := post(client, url, w.bodies[i])
				done := time.Now()
				tr.end(sp)
				p.lat[i], p.lag[i] = done.Sub(at), sent.Sub(at)
				if err == nil {
					p.overhead[i] = done.Sub(sent) - time.Duration(resp.ElapsedMs*float64(time.Millisecond))
					err = w.pins.check("serve-open", w.keys[i], resp.Events, responseDigest(resp))
				}
				p.errs[i] = err
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)

	shutdown := hs.Shutdown(context.Background())
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if shutdown != nil {
		return nil, fmt.Errorf("serve shutdown: %w", shutdown)
	}
	transport.CloseIdleConnections()
	p.stats = srv.Stats()
	return p, nil
}

func (w *serveOpen) round(tr *tracer) (*roundResult, error) {
	r := &roundResult{layer: map[string]float64{}}
	count := func(p *posted) {
		for _, err := range p.errs {
			r.attempted++
			if err != nil {
				r.fail(err)
			}
		}
	}
	rs := tr.begin("round", 0)

	sp := tr.begin("capacity probe", rs)
	nCal := min(serveCalibration, len(w.keys))
	probe, err := w.session(nCal, func(int) time.Duration { return 0 }, tr, sp)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	count(probe)
	capacity := float64(nCal) / probe.wall.Seconds()
	rate := w.load * capacity

	sp = tr.begin("open-loop session", rs)
	sess, err := w.session(len(w.keys), func(i int) time.Duration {
		return time.Duration(w.arrivals[i] / rate * float64(time.Second))
	}, tr, sp)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	count(sess)
	r.wall, r.lat = sess.wall, sess.lat

	sp = tr.begin("stage pass", rs)
	stageRound(r, newJobs(w.scs), w.keys, "serve-open", w.pins, w.workers, experiment.NewDeployCache(0), tr, sp)
	tr.end(sp)
	tr.end(rs)

	st := sess.stats
	r.layer["serve.capacity_rps"] = capacity
	r.layer["serve.overhead_ms_p50"] = ms(quantile(sess.overhead, 0.50))
	r.layer["serve.overhead_ms_p95"] = ms(quantile(sess.overhead, 0.95))
	r.layer["serve.gen_lag_ms"] = ms(quantile(sess.lag, 1))
	r.layer["serve.shed"] = float64(st.Shed)
	r.layer["serve.cache_hit_ratio"] = ratio(st.CacheHits, st.CacheHits+st.CacheMisses)
	return r, nil
}

// post sends one spec and decodes the response; anything but a 200
// with a well-formed body is an error.
func post(client *http.Client, url string, body []byte) (*serve.RunResponse, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var rr serve.RunResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		return nil, fmt.Errorf("serve: response: %w", err)
	}
	return &rr, nil
}
