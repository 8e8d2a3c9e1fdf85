// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed measuring time, checks every run's output
// against the outputs pinned at its baseline commit, and prints the
// workload's metrics as the last line of standard output, one JSON
// object. An untraced run (-trace 0) reports the end-to-end metrics; a
// traced run (-trace 1) reports the per-layer ones, from spans around
// the benchmark's calls into each layer and a CPU profile the process
// takes of itself. README.md describes the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/essat/essat/internal/experiment"
)

var workloadNames = []string{"paper-grid", "huge-10k", "mixed-campaign", "serve-open"}

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	workdir   string
	serveLoad float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var pinsOut string
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 20, "measuring time in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for campaign journals and span dumps")
	flag.Float64Var(&o.serveLoad, "serve-load", 0, "serve-open offered rate as a share of the server's measured capacity")
	flag.StringVar(&pinsOut, "record-pins", "", "run every pool entry once and write the pinned outputs to this file")
	flag.Parse()

	if pinsOut != "" {
		if err := recordPins(pinsOut); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(o options) (*report, error) {
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1")
	}
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	work, err := filepath.Abs(filepath.Join(o.workdir, fmt.Sprintf("perfbench-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	// A traced run measures twice, each phase half as long.
	phase := float64(o.seconds)
	if o.trace == 1 {
		phase /= 2
	}
	var w workload
	switch o.workload {
	case "paper-grid":
		w = newPaperGrid(o.seed, workers, pins)
	case "huge-10k":
		sc, err := hugeScenario()
		if err != nil {
			return nil, err
		}
		w = &huge10k{sc: sc, pins: pins}
	case "mixed-campaign":
		w, err = newMixedCampaign(o.seed, workers, work, pins)
	case "serve-open":
		if o.serveLoad <= 0 || o.serveLoad >= 1 {
			return nil, fmt.Errorf("serve-open needs -serve-load in (0, 1)")
		}
		// A block per measured second, and at least four blocks, so p95
		// has at least 10 samples beyond it.
		n := serveBlock * max(4, int(phase))
		w, err = newServeOpen(o.seed, o.serveLoad, n, workers, pins)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}

	budget := time.Duration(phase * float64(time.Second))
	plain, plainRT, err := rounds(w, budget, nil)
	if err != nil {
		return nil, err
	}
	rep := &report{Metrics: map[string]metric{}}
	tally(rep, plain)
	if o.trace == 0 {
		endToEnd(rep, plain)
		printEndToEnd(o.workload, rep, plain)
		return rep, nil
	}

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced, _, err := rounds(w, budget, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	tally(rep, traced)
	byLayer, samples, err := leafSamples(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	dep, err := deployPass(w.scenarios(), tr, 0)
	if err != nil {
		return nil, err
	}
	auditFrac := auditProbe(w, plain, workers)
	perLayer(rep, plain, plainRT, traced, byLayer, samples, dep, auditFrac)
	printPerLayer(o.workload, rep, byLayer, samples, tr)
	base := filepath.Join(o.workdir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err := tr.writeSpans(base + ".spans.jsonl"); err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return rep, nil
}

// runtimeUse is the runtime's own accounting of CPU over a phase.
type runtimeUse struct {
	gcCPU, totalCPU float64
}

func readRuntime() runtimeUse {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeUse{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64()}
}

// heapAllocs is the number of heap objects allocated so far.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rounds runs rounds until budget has elapsed (at least one, at most
// the workload's maximum) and returns them with the runtime's use.
func rounds(w workload, budget time.Duration, tr *tracer) ([]*roundResult, runtimeUse, error) {
	before := readRuntime()
	start := time.Now()
	var out []*roundResult
	for len(out) == 0 || time.Since(start) < budget {
		if m := w.maxRounds(); m > 0 && len(out) >= m {
			break
		}
		// Each round starts from a collected heap returned to the OS and a
		// reset high-water mark, so the mark measures this round alone.
		debug.FreeOSMemory()
		resetPeakRSS()
		r, err := w.round(tr)
		if err != nil {
			return nil, runtimeUse{}, err
		}
		r.peakRSS = peakRSSMB()
		out = append(out, r)
	}
	after := readRuntime()
	return out, runtimeUse{gcCPU: after.gcCPU - before.gcCPU, totalCPU: after.totalCPU - before.totalCPU}, nil
}

func tally(rep *report, rs []*roundResult) {
	for _, r := range rs {
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		for _, err := range r.errs {
			fmt.Fprintln(os.Stderr, "perfbench: failed:", err)
		}
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
}

func (rep *report) set(name string, v float64, unit string) { rep.Metrics[name] = metric{v, unit} }

// endToEnd reports every end-to-end metric, each the median over rounds
// of the round's value; a round's latency percentiles are taken over its
// own operations. A workload whose round is one operation (huge-10k) so
// reports the median run, not an extreme of two or three.
func endToEnd(rep *report, rs []*roundResult) {
	var wall, setup, nsEvent, rss, p50, p95 []float64
	for _, r := range rs {
		t := totals(r.jobs)
		wall = append(wall, r.wall.Seconds())
		rss = append(rss, r.peakRSS)
		setup = append(setup, t.build.Seconds())
		nsEvent = append(nsEvent, float64(t.simulate.Nanoseconds())/float64(t.events))
		p50 = append(p50, ms(quantile(r.lat, 0.50)))
		p95 = append(p95, ms(quantile(r.lat, 0.95)))
	}
	rep.set("wall_s", median(wall), "s")
	rep.set("setup_s", median(setup), "s")
	rep.set("ns_per_event", median(nsEvent), "ns")
	rep.set("peak_rss_mb", median(rss), "MB")
	rep.set("ok_frac", 1-float64(rep.Failed)/float64(rep.Attempted), "frac")
	rep.set("p50_ms", median(p50), "ms")
	rep.set("p95_ms", median(p95), "ms")
}

// perLayer reports every per-layer metric. Counts come from the first
// traced round (every round of a workload does the same work), stage
// times are medians over traced rounds, and runtime use comes from the
// untraced phase.
func perLayer(rep *report, plain []*roundResult, rt runtimeUse, traced []*roundResult,
	byLayer map[string]int64, samples int64, dep deployTimes, auditFrac float64) {
	for _, l := range layers {
		rep.set(l+".self_share", ratio(uint64(byLayer[l]), uint64(samples)), "frac")
	}
	var c struct {
		events, pending, tx, deliveries, collisions, fade, drops, sent, failed, retries, timeouts, shifts, passthroughs, records uint64
	}
	first := traced[0]
	for _, j := range first.jobs {
		if j.res == nil {
			continue
		}
		r := j.res
		c.events += r.Events
		c.pending += uint64(j.pending)
		c.tx += r.Channel.Transmissions
		c.deliveries += r.Channel.Deliveries
		c.collisions += r.Channel.Collisions
		c.fade += r.Channel.FadeDrops
		c.drops += r.Channel.Collisions + r.Channel.RandomDrops + r.Channel.LinkDrops + r.Channel.FadeDrops
		c.sent += r.MACSent
		c.failed += r.MACFailed
		c.retries += r.MACRetries
		c.timeouts += r.Timeouts
		c.shifts += r.PhaseShifts
		c.passthroughs += r.PassThroughs
		c.records += uint64(j.records)
	}
	rep.set("sim.events", float64(c.events), "count")
	rep.set("sim.pending_end", float64(c.pending), "count")
	rep.set("phy.transmissions", float64(c.tx), "count")
	rep.set("phy.collisions", float64(c.collisions), "count")
	rep.set("phy.fade_drops", float64(c.fade), "count")
	rep.set("phy.delivery_ratio", ratio(c.deliveries, c.deliveries+c.drops), "frac")
	rep.set("mac.sent", float64(c.sent), "count")
	rep.set("mac.retries", float64(c.retries), "count")
	rep.set("mac.timeouts", float64(c.timeouts), "count")
	rep.set("mac.success_ratio", ratio(c.sent-c.failed, c.sent), "frac")
	rep.set("core.phase_shifts", float64(c.shifts), "count")
	rep.set("query.passthroughs", float64(c.passthroughs), "count")
	rep.set("stats.records", float64(c.records), "count")

	var sim, col []float64
	layer := map[string][]float64{}
	for _, r := range traced {
		t := totals(r.jobs)
		sim = append(sim, t.simulate.Seconds())
		col = append(col, t.collect.Seconds())
		for k, v := range r.layer {
			layer[k] = append(layer[k], v)
		}
	}
	rep.set("experiment.simulate_s", median(sim), "s")
	rep.set("experiment.collect_s", median(col), "s")
	var runs int
	var allocs uint64
	for _, r := range plain {
		runs += len(r.jobs)
		allocs += r.allocs
	}
	rep.set("experiment.allocs_per_run", float64(allocs)/float64(runs), "count")
	rep.set("experiment.deploy_cache_hit_ratio", ratio(first.cacheHits, first.cacheHits+first.cacheMisses), "frac")
	rep.set("topology.build_ms", ms(dep.topology), "ms")
	rep.set("routing.flood_ms", ms(dep.flood), "ms")
	rep.set("routing.tree_size", float64(dep.treeSize), "count")
	rep.set("check.audit_overhead_frac", auditFrac, "frac")
	rep.set("runtime.gc_cpu_frac", rt.gcCPU/rt.totalCPU, "frac")

	// Values only some workloads measure read 0 elsewhere.
	for name, unit := range map[string]string{
		"campaign.overhead_s": "s", "campaign.retries": "count",
		"serve.capacity_rps": "1/s", "serve.overhead_ms_p50": "ms", "serve.overhead_ms_p95": "ms", "serve.gen_lag_ms": "ms",
		"serve.shed": "count", "serve.cache_hit_ratio": "frac",
	} {
		rep.set(name, median(layer[name]), unit)
	}

	var pw, tw []float64
	for _, r := range plain {
		pw = append(pw, r.wall.Seconds())
	}
	for _, r := range traced {
		tw = append(tw, r.wall.Seconds())
	}
	rep.set("trace_overhead_frac", median(tw)/median(pw)-1, "frac")
}

// auditProbe reruns one round's staged pass with the auditor flipped
// and returns the audited pass's extra simulate+collect time as a share
// of the unaudited one's; the other side comes from the untraced rounds.
func auditProbe(w workload, plain []*roundResult, workers int) float64 {
	var base []float64
	audited := false
	for _, r := range plain {
		t := totals(r.jobs)
		base = append(base, (t.simulate + t.collect).Seconds())
		audited = r.jobs[0].sc.Audit
	}
	scs := w.scenarios()
	jobs := make([]*job, len(scs))
	for i, sc := range scs {
		sc.Audit = !audited
		jobs[i] = &job{sc: sc}
	}
	var cache *experiment.DeployCache
	if w.sharedCache() {
		cache = experiment.NewDeployCache(0)
	}
	stagePass(jobs, workers, cache, resultDigest, nil, 0)
	t := totals(jobs)
	probe := (t.simulate + t.collect).Seconds()
	if audited {
		return median(base)/probe - 1
	}
	return probe/median(base) - 1
}

func printEndToEnd(name string, rep *report, rs []*roundResult) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "%s: %d rounds, %d operations, %d failed\n", name, len(rs), rep.Attempted, rep.Failed)
	walls := make([]string, len(rs))
	for i, r := range rs {
		walls[i] = fmt.Sprintf("%.3f", r.wall.Seconds())
	}
	fmt.Fprintf(tw, "round wall times (s): %s\n", strings.Join(walls, " "))
	printMetrics(tw, rep)
	tw.Flush()
}

func printPerLayer(name string, rep *report, byLayer map[string]int64, samples int64, tr *tracer) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "%s: CPU self share by layer (%d profile samples)\t\n", name, samples)
	for _, l := range layers {
		fmt.Fprintf(tw, "%s\t%.1f%%\t\n", l, 100*ratio(uint64(byLayer[l]), uint64(samples)))
	}
	fmt.Fprintf(tw, "\nspan\tcount\ttotal ms\tself ms\t\n")
	for _, s := range tr.spanTable() {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t\n", s.name, s.count, ms(s.total), ms(s.self))
	}
	fmt.Fprintln(tw)
	printMetrics(tw, rep)
	tw.Flush()
}

func printMetrics(tw *tabwriter.Writer, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t\n", n, m.Value, m.Unit)
	}
}

// resetPeakRSS restarts the kernel's resident-memory high-water mark.
// Where that is not possible the mark keeps covering the whole process,
// which only makes later rounds read high.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-memory high-water mark since the
// last resetPeakRSS.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscan(strings.TrimPrefix(line, "VmHWM:"), &kb)
			return kb / 1024
		}
	}
	return 0
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile interpolates linearly between the closest ranks.
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + time.Duration((pos-float64(i))*float64(s[i+1]-s[i]))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
