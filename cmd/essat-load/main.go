// Command essat-load drives an essat-serve instance with concurrent
// spec requests and reports throughput and latency percentiles — the
// harness for validating the server's graceful-degradation behavior
// under real load. Serve-layer performance numbers come from the
// perfbench module's serve-open workload (see BENCHMARKS.md).
//
// Workers pull requests from a shared channel; 429 (shed) and 5xx
// responses retry with jittered exponential backoff, so the measured
// numbers describe the closed-loop behavior a polite client sees. A
// fraction of requests can be deliberately malformed or over-budget to
// exercise the server's error taxonomy mid-burst.
//
// With -corpus the driver replays a generated workload corpus (see
// essat-campaign gen) instead of repeating one spec: every corpus spec
// is posted exactly once and the report carries per-status counts, so
// it shows how the server handled the full protocol × topology ×
// propagation × radio cross-product.
//
// Examples:
//
//	essat-load -url http://localhost:8080 -n 200 -c 16
//	essat-load -n 200 -c 16 -malformed 2 -overbudget 2 -check -expect-shed
//	essat-load -corpus corpus/ -c 8 -check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/essat/essat/internal/corpus"

	"github.com/essat/essat/internal/stats"
)

// defaultSpec is a mid-sized run (~150k events, tens of milliseconds)
// so a load test exercises concurrency, not patience. phase_max keeps
// every query phase inside the short run: with the 10s default most
// queries would start after the simulation ended and the "run" would
// degenerate to tree setup.
const defaultSpec = `{"protocol":"DTS-SS","nodes":40,"area":350,"duration":"10s","workload":{"base_rate":2,"per_class":2,"phase_max":"500ms"}}`

// kind labels what each request deliberately is, so the driver can
// assert the server answered each class correctly.
type kind int

const (
	kindOK kind = iota
	kindMalformed
	kindOverBudget
)

// expected maps each request kind to the status a correct server
// eventually answers with (after shed retries).
func (k kind) expected() int {
	switch k {
	case kindMalformed:
		return http.StatusBadRequest
	case kindOverBudget:
		return http.StatusUnprocessableEntity
	default:
		return http.StatusOK
	}
}

// counters aggregates outcomes across workers.
type counters struct {
	ok, badSpec, budget, shed, retries, errors atomic.Uint64

	// statuses counts terminal HTTP statuses (post-retry), for the
	// per-spec breakdown corpus replays report.
	statusMu sync.Mutex
	statuses map[int]uint64
}

func (c *counters) status(code int) {
	c.statusMu.Lock()
	if c.statuses == nil {
		c.statuses = make(map[int]uint64)
	}
	c.statuses[code]++
	c.statusMu.Unlock()
}

// job is one request to send: its taxonomy kind plus the body to post.
type job struct {
	k    kind
	body string
}

func main() {
	var (
		url        = flag.String("url", "http://localhost:8080", "essat-serve base URL")
		n          = flag.Int("n", 200, "total requests")
		c          = flag.Int("c", 16, "concurrent workers")
		specPath   = flag.String("spec", "", "spec file to post (empty = a small built-in DTS-SS run)")
		corpusDir  = flag.String("corpus", "", "replay a generated corpus directory (essat-campaign gen) instead of repeating one spec; overrides -n/-spec/-malformed/-overbudget")
		malformed  = flag.Int("malformed", 0, "of the N requests, send this many malformed specs (expect 400)")
		overbudget = flag.Int("overbudget", 0, "of the N requests, send this many with max_events=1000 (expect 422)")
		retries    = flag.Int("retries", 14, "max retries per request on 429/503/network errors")
		timeout    = flag.Duration("timeout", 2*time.Minute, "per-request client timeout")
		check      = flag.Bool("check", false, "exit non-zero unless every request eventually got its expected status")
		expectShed = flag.Bool("expect-shed", false, "with -check, also require at least one 429 (proves shedding engaged)")
	)
	flag.Parse()

	if *c <= 0 {
		fatal(fmt.Errorf("c must be positive"))
	}
	var jobs chan job
	corpusSpecs := 0
	if *corpusDir != "" {
		// Corpus replay: every spec in the corpus, exactly once. All are
		// well-formed by the corpus contract, so they all expect 200.
		if *malformed > 0 || *overbudget > 0 {
			fatal(fmt.Errorf("-corpus replays only well-formed specs; drop -malformed/-overbudget"))
		}
		_, items, err := corpus.Load(*corpusDir)
		if err != nil {
			fatal(err)
		}
		corpusSpecs = len(items)
		*n = len(items)
		jobs = make(chan job, len(items))
		for _, it := range items {
			body, err := json.Marshal(it.Spec)
			if err != nil {
				fatal(err)
			}
			jobs <- job{k: kindOK, body: string(body)}
		}
		close(jobs)
	} else {
		if *n <= 0 {
			fatal(fmt.Errorf("n must be positive"))
		}
		if *malformed+*overbudget > *n {
			fatal(fmt.Errorf("malformed+overbudget (%d) exceeds n (%d)", *malformed+*overbudget, *n))
		}
		spec := defaultSpec
		if *specPath != "" {
			data, err := os.ReadFile(*specPath)
			if err != nil {
				fatal(err)
			}
			spec = string(data)
		}

		// Interleave the special requests through the stream instead of
		// front-loading them, so they land mid-burst.
		jobs = make(chan job, *n)
		for i, m, o := 0, *malformed, *overbudget; i < *n; i++ {
			switch {
			case m > 0 && i%3 == 1:
				jobs <- job{k: kindMalformed, body: spec}
				m--
			case o > 0 && i%3 == 2:
				jobs <- job{k: kindOverBudget, body: spec}
				o--
			default:
				jobs <- job{k: kindOK, body: spec}
			}
		}
		close(jobs)
	}

	client := &http.Client{Timeout: *timeout}
	var (
		ctr       counters
		latMu     sync.Mutex
		latencies []time.Duration
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(worker) + 1))
			var local []time.Duration
			for jb := range jobs {
				lat, ok := doRequest(client, rng, *url, jb, *retries, &ctr)
				if ok && jb.k == kindOK {
					local = append(local, lat)
				}
			}
			latMu.Lock()
			latencies = append(latencies, local...)
			latMu.Unlock()
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	rep := buildReport(*url, *n, *c, wall, latencies, &ctr)
	if corpusSpecs > 0 {
		rep.CorpusSpecs = corpusSpecs
		rep.StatusCounts = ctr.statuses // every worker has finished
	}
	fetchCacheStats(client, *url, &rep)
	printReport(rep)

	if *check {
		want := uint64(*n)
		got := ctr.ok.Load() + ctr.badSpec.Load() + ctr.budget.Load()
		if got != want || ctr.errors.Load() > 0 {
			fatal(fmt.Errorf("check failed: %d/%d requests reached their expected status (%d gave up or mismatched)",
				got, want, ctr.errors.Load()))
		}
		if ctr.badSpec.Load() != uint64(*malformed) || ctr.budget.Load() != uint64(*overbudget) {
			fatal(fmt.Errorf("check failed: bad_spec=%d (want %d), budget=%d (want %d)",
				ctr.badSpec.Load(), *malformed, ctr.budget.Load(), *overbudget))
		}
		if *expectShed && ctr.shed.Load() == 0 {
			fatal(fmt.Errorf("check failed: no request was shed (server never returned 429)"))
		}
	}
}

// doRequest sends one request (with retries on shed/unavailable/network
// failures) and reports the end-to-end latency of the final, successful
// attempt and whether the terminal status matched the kind's
// expectation. Terminal mismatches and exhausted retries count into
// ctr.errors.
func doRequest(client *http.Client, rng *rand.Rand, baseURL string, jb job, maxRetries int, ctr *counters) (time.Duration, bool) {
	url := baseURL + "/run"
	body := jb.body
	switch jb.k {
	case kindMalformed:
		body = `{"protocol": "DTS-SS", "definitely_not_a_field": `
	case kindOverBudget:
		url += "?max_events=1000"
	}

	backoff := 25 * time.Millisecond
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		resp, err := client.Post(url, "application/json", strings.NewReader(body))
		var status int
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			status = resp.StatusCode
		}
		lat := time.Since(t0)

		retryable := err != nil || status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
		if status == http.StatusTooManyRequests {
			ctr.shed.Add(1)
		}
		if !retryable {
			ctr.status(status)
			switch status {
			case http.StatusOK:
				ctr.ok.Add(1)
			case http.StatusBadRequest:
				ctr.badSpec.Add(1)
			case http.StatusUnprocessableEntity:
				ctr.budget.Add(1)
			}
			if status != jb.k.expected() {
				ctr.errors.Add(1)
				return lat, false
			}
			return lat, true
		}
		if attempt >= maxRetries {
			ctr.errors.Add(1)
			return lat, false
		}
		ctr.retries.Add(1)
		// Exponential backoff with full jitter, capped at 2s.
		sleep := time.Duration(rng.Int63n(int64(backoff) + 1))
		time.Sleep(sleep)
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// report is the stdout summary of one load run.
type report struct {
	URL            string
	Requests       int
	Concurrency    int
	WallSeconds    float64
	RequestsPerSec float64
	LatencyP50Ms   float64
	LatencyP99Ms   float64
	OK             uint64
	BadSpec        uint64
	Budget         uint64
	Shed           uint64
	Retries        uint64
	Errors         uint64
	// CacheHits and CacheMisses are the server's deployment-cache
	// counters after the burst (fetched from /readyz): hits are runs
	// that skipped topology placement and tree construction.
	CacheHits   uint64
	CacheMisses uint64
	// CorpusSpecs and StatusCounts describe a corpus replay: how many
	// specs the corpus held and the terminal HTTP status each landed on
	// (keyed by status code). Zero for single-spec bursts.
	CorpusSpecs  int
	StatusCounts map[int]uint64
}

// fetchCacheStats reads the server's deployment-cache counters off
// /readyz. Best-effort: a fetch failure leaves the counters zero (the
// load numbers themselves are unaffected).
func fetchCacheStats(client *http.Client, baseURL string, r *report) {
	resp, err := client.Get(baseURL + "/readyz")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var st struct {
		CacheHits   uint64 `json:"cache_hits"`
		CacheMisses uint64 `json:"cache_misses"`
	}
	if json.NewDecoder(resp.Body).Decode(&st) == nil {
		r.CacheHits, r.CacheMisses = st.CacheHits, st.CacheMisses
	}
}

func buildReport(url string, n, c int, wall time.Duration, lats []time.Duration, ctr *counters) report {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 { return pctMs(lats, p) }
	return report{
		URL:            url,
		Requests:       n,
		Concurrency:    c,
		WallSeconds:    wall.Seconds(),
		RequestsPerSec: float64(n) / wall.Seconds(),
		LatencyP50Ms:   pct(0.50),
		LatencyP99Ms:   pct(0.99),
		OK:             ctr.ok.Load(),
		BadSpec:        ctr.badSpec.Load(),
		Budget:         ctr.budget.Load(),
		Shed:           ctr.shed.Load(),
		Retries:        ctr.retries.Load(),
		Errors:         ctr.errors.Load(),
	}
}

// pctMs returns the nearest-rank p-th percentile of sorted latencies in
// milliseconds — the same percentile definition the engine's
// DurationStats uses (stats.Percentile), so serve-layer and engine
// reports are comparable.
func pctMs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(stats.Percentile(sorted, p)) / float64(time.Millisecond)
}

func printReport(r report) {
	fmt.Printf("target          %s\n", r.URL)
	fmt.Printf("requests        %d over %d workers in %.2fs\n", r.Requests, r.Concurrency, r.WallSeconds)
	fmt.Printf("throughput      %.1f requests/sec\n", r.RequestsPerSec)
	fmt.Printf("latency         p50 %.1f ms, p99 %.1f ms (successful runs)\n", r.LatencyP50Ms, r.LatencyP99Ms)
	fmt.Printf("outcomes        %d ok, %d bad_spec, %d budget; %d shed responses, %d retries, %d gave up\n",
		r.OK, r.BadSpec, r.Budget, r.Shed, r.Retries, r.Errors)
	fmt.Printf("deploy cache    %d hits, %d misses (server lifetime)\n", r.CacheHits, r.CacheMisses)
	if r.CorpusSpecs > 0 {
		codes := make([]int, 0, len(r.StatusCounts))
		for code := range r.StatusCounts {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		var parts []string
		for _, code := range codes {
			parts = append(parts, fmt.Sprintf("%d×%d", code, r.StatusCounts[code]))
		}
		fmt.Printf("corpus          %d specs replayed: %s\n", r.CorpusSpecs, strings.Join(parts, ", "))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "essat-load:", err)
	os.Exit(1)
}
