package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"github.com/essat/essat/internal/experiment"
)

// runOne runs a scenario through the staged pass and returns the job
// with its result fingerprinted as workload pins it.
func runOne(t *testing.T, workload string, sc experiment.Scenario) *job {
	t.Helper()
	j := &job{sc: sc}
	stagePass([]*job{j}, 1, nil, pinDigest(workload), nil, 0)
	if j.err != nil {
		t.Fatal(j.err)
	}
	return j
}

func TestPinnedCheckTripsOnPerturbedSeed(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	camp, err := campaignSpec(5).Scenario()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serveSpec(3).Scenario()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		workload string
		entry    int
		sc       experiment.Scenario
	}{
		{"paper-grid", 0, paperGridScenarios()[0]},
		{"mixed-campaign", 5, camp},
		{"serve-open", 3, srv},
	} {
		j := runOne(t, c.workload, c.sc)
		if err := pins.check(c.workload, c.entry, j.res.Events, j.digest); err != nil {
			t.Errorf("%s: unperturbed run fails its pin: %v", c.workload, err)
		}
		perturbed := c.sc
		perturbed.Seed++
		j = runOne(t, c.workload, perturbed)
		if err := pins.check(c.workload, c.entry, j.res.Events, j.digest); err == nil {
			t.Errorf("%s: run with a perturbed seed passes the pinned-output check", c.workload)
		}
	}
}

func TestPinsCoverEveryPool(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for w, n := range map[string]int{
		"paper-grid":     len(paperGridScenarios()),
		"huge-10k":       1,
		"mixed-campaign": campaignCells * campaignVariants,
		"serve-open":     len(protocols) * serveSeeds,
	} {
		if len(pins[w]) != n {
			t.Errorf("%s: %d pins for a pool of %d", w, len(pins[w]), n)
		}
	}
}

func TestInputsCarryNoParallelism(t *testing.T) {
	var specs []*experiment.Spec
	for i := 0; i < campaignCells*campaignVariants; i++ {
		specs = append(specs, campaignSpec(i))
	}
	for i := 0; i < len(protocols)*serveSeeds; i++ {
		specs = append(specs, serveSpec(i))
	}
	huge, err := experiment.ParseSpec(hugeJSON)
	if err != nil {
		t.Fatal(err)
	}
	specs = append(specs, huge)
	for _, s := range specs {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if s.Parallelism != nil || bytes.Contains(data, []byte("parallelism")) {
			t.Fatalf("input carries a parallelism block: %s", data)
		}
	}
	for _, sc := range paperGridScenarios() {
		if sc.Shards > 1 {
			t.Fatalf("paper-grid scenario asks for %d shards", sc.Shards)
		}
	}
}

func TestGeneratorsFollowTheSeed(t *testing.T) {
	if !reflect.DeepEqual(campaignPick(7), campaignPick(7)) {
		t.Error("campaignPick is not deterministic in its seed")
	}
	if reflect.DeepEqual(campaignPick(7), campaignPick(8)) {
		t.Error("campaignPick ignores its seed")
	}
	e1, d1 := serveSchedule(7, 2*serveBlock)
	e2, d2 := serveSchedule(7, 2*serveBlock)
	if !reflect.DeepEqual(e1, e2) || !reflect.DeepEqual(d1, d2) {
		t.Error("serveSchedule is not deterministic in its seed")
	}
	e3, _ := serveSchedule(8, 2*serveBlock)
	if reflect.DeepEqual(e1, e3) {
		t.Error("serveSchedule ignores its seed")
	}

	// Each block offers every (protocol, load level) pair once.
	seen := map[[2]int]int{}
	for _, e := range e1[:serveBlock] {
		seen[[2]int{e % len(protocols), e / len(protocols) % len(serveLevels)}]++
	}
	if len(seen) != serveBlock {
		t.Errorf("first block covers %d of %d protocol × load pairs", len(seen), serveBlock)
	}
	// Every campaign covers the cross-product once, half of it with sinks.
	sinks := 0
	for c, k := range campaignPick(3) {
		if k/campaignVariants != c {
			t.Fatalf("cell %d picked entry %d of another cell", c, k)
		}
		if campaignSpec(k).Results != nil {
			sinks++
		}
	}
	if sinks != campaignCells/2 {
		t.Errorf("%d of %d campaign specs request sinks, want half", sinks, campaignCells)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/essat/essat/internal/sim.(*Engine).insert":     "sim",
		"github.com/essat/essat/internal/check.(*Auditor).Observe": "check",
		"github.com/essat/essat/internal/geom.Dist":                "other",
		"runtime.mallocgc": "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"math.Erfc": "other",
		"github.com/essat/essat/internal/stats.mean[go.shape.int]":     "stats",
		"github.com/essat/essat/internal/phy.(*Channel).deliver.func1": "phy",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLeafSamplesDecodesAProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	runOne(t, "paper-grid", paperGridScenarios()[0])
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
	}
	pprof.StopCPUProfile()
	byLayer, total, err := leafSamples(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for l, n := range byLayer {
		if !strings.Contains(strings.Join(layers, " "), l) {
			t.Errorf("unknown layer %q", l)
		}
		sum += n
	}
	if total == 0 || sum != total {
		t.Fatalf("decoded %d samples, layers sum to %d", total, sum)
	}
}

func TestSpanSelfTimeSubtractsOverlappingChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "job", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "job", Start: 30, End: 70},
	}}
	rows := tr.spanTable()
	if rows[0].name != "round" || rows[0].self != 40 {
		t.Errorf("round self time = %v, want 40ns", rows[0].self)
	}
	if rows[1].count != 2 || rows[1].total != 80 {
		t.Errorf("job row = %+v, want 2 spans totalling 80ns", rows[1])
	}
}

// TestServeRoundIsCorrect runs one short serve-open round: the capacity
// probe and the session, two senders each against an in-process server,
// then the staged pass on two workers,
// with tracing on, so the race detector sees every goroutine the
// benchmark starts.
func TestServeRoundIsCorrect(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	w, err := newServeOpen(1, 0.6, serveCalibration, 2, pins)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	r, err := w.round(tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || r.attempted != 3*serveCalibration {
		t.Fatalf("%d of %d operations failed: %v", r.failed, r.attempted, r.errs)
	}
	if len(r.lat) != serveCalibration || len(tr.spans) == 0 || r.layer["serve.capacity_rps"] <= 0 {
		t.Fatalf("%d latencies, %d spans and capacity %v for %d requests",
			len(r.lat), len(tr.spans), r.layer["serve.capacity_rps"], serveCalibration)
	}
}

// TestPaperGridMatchesFigureDriver checks that the benchmark builds the
// fig3 runs exactly as the figure driver does: the driver's 1 Hz points
// are the means of the benchmark's runs.
func TestPaperGridMatchesFigureDriver(t *testing.T) {
	fig, err := experiment.Fig3DutyVsRate(experiment.QuickOptions(), []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	scs := paperGridScenarios()
	for pi, series := range fig.Series {
		// Each protocol's block holds 5 fig3 rates then 6 fig4 counts, two
		// seeds each; the 1 Hz runs are its first two.
		block := pi * (5 + 6) * 2
		var sum float64
		for _, sc := range scs[block : block+2] {
			sum += runOne(t, "paper-grid", sc).res.DutyCycle * 100
		}
		if got, want := sum/2, series.Points[0].Mean; got != want {
			t.Errorf("%s at 1 Hz: benchmark runs average %v, figure driver %v", series.Name, got, want)
		}
	}
}
