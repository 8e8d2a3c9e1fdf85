package experiment

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/essat/essat/internal/dynamics"
)

// shardsScenario is the smoke setup with auditing on (the digest is the
// byte-identity witness) and the given Scenario.Shards value.
func shardsScenario(p Protocol, seed int64, shards int) Scenario {
	sc := smokeScenario(p, seed)
	sc.Audit = true
	sc.Shards = shards
	return sc
}

// sameRun fails t unless a and b are the same run: equal audit digest
// and event count.
func sameRun(t *testing.T, a, b *Result) {
	t.Helper()
	if a.Audit == nil || a.Audit.Digest == "" {
		t.Fatal("run produced no audit digest")
	}
	if a.Audit.Digest != b.Audit.Digest {
		t.Errorf("digest %s != %s", a.Audit.Digest, b.Audit.Digest)
	}
	if a.Events != b.Events {
		t.Errorf("events %d != %d", a.Events, b.Events)
	}
}

// TestShardCountInvariance pins what is left of Scenario.Shards now that
// the sharded engine is gone: 0 and 1 both mean the one sequential event
// loop and give byte-identical runs, and every count above 1 fails the
// build with the removal error instead of silently running sequentially.
func TestShardCountInvariance(t *testing.T) {
	seq, err := Run(shardsScenario(DTSSS, 42, 0))
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(shardsScenario(DTSSS, 42, 1))
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, one, seq)

	for _, k := range []int{2, 3, 4} {
		k := k
		t.Run(string(rune('0'+k))+"shards", func(t *testing.T) {
			_, err := Run(shardsScenario(DTSSS, 42, k))
			if err == nil {
				t.Fatalf("shards=%d: expected a build error", k)
			}
			if !strings.Contains(err.Error(), "Scenario.Shards was removed") {
				t.Errorf("shards=%d: error %q does not name the removed field", k, err)
			}
		})
	}
}

// TestParallelAllProtocols: for every registered protocol, Shards=1 is
// the default run, byte for byte.
func TestParallelAllProtocols(t *testing.T) {
	for _, p := range AllProtocols {
		p := p
		t.Run(string(p), func(t *testing.T) {
			seq, err := Run(shardsScenario(p, 42, 0))
			if err != nil {
				t.Fatal(err)
			}
			one, err := Run(shardsScenario(p, 42, 1))
			if err != nil {
				t.Fatal(err)
			}
			sameRun(t, one, seq)
			if one.Latency.N == 0 {
				t.Error("no query latency samples reached the root")
			}
		})
	}
}

// TestParallelGates: the four features the sharded engine had to switch
// off (tracing, dynamics, the failure detector, radio-observing sinks)
// are no longer gated on the shard count. Each builds with Shards=1 and
// runs byte-identical to the same scenario without it.
func TestParallelGates(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"tracing", func(sc *Scenario) { sc.TraceCapacity = 64 }},
		{"dynamics", func(sc *Scenario) {
			sc.Dynamics = []Dynamic{{Kind: "crash", Params: dynamics.Params{At: 10 * time.Second, Count: 2}}}
		}},
		{"failure-detector", func(sc *Scenario) { sc.QueryCfg.FailureThreshold = 3 }},
		{"radio-sink", func(sc *Scenario) {
			sc.Sinks = []SinkChoice{{Name: "timeseries"}}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			seqSc, oneSc := shardsScenario(DTSSS, 42, 0), shardsScenario(DTSSS, 42, 1)
			tc.mut(&seqSc)
			tc.mut(&oneSc)
			seq, err := Run(seqSc)
			if err != nil {
				t.Fatal(err)
			}
			one, err := Run(oneSc)
			if err != nil {
				t.Fatalf("%s with shards=1: %v", tc.name, err)
			}
			sameRun(t, one, seq)
		})
	}
}

// TestParallelBudget: with one event loop the event budget stops a run
// at exactly MaxEvents; the sharded engine could only stop at a barrier.
func TestParallelBudget(t *testing.T) {
	_, err := RunContext(context.Background(), shardsScenario(DTSSS, 42, 1), Budget{MaxEvents: 10_000})
	var be *BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v (%T), want *BudgetExceededError", err, err)
	}
	if be.Resource != "events" || be.Events != 10_000 {
		t.Errorf("BudgetExceededError = {Resource: %q, Events: %d}, want {events, 10000}", be.Resource, be.Events)
	}
}
