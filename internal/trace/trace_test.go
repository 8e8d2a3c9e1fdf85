package trace

import (
	"strings"
	"testing"
	"time"
)

func fixedClock(at *time.Duration) func() time.Duration {
	return func() time.Duration { return *at }
}

func TestDisabledTracerIsNoOp(t *testing.T) {
	var nilTracer *Tracer
	nilTracer.Record(1, RadioSleep, "")
	nilTracer.Recordf(1, RadioSleep, "%d", 1)
	if nilTracer.Enabled() || nilTracer.Events() != nil {
		t.Fatal("nil tracer should be fully inert")
	}
}

func TestRecordAndEvents(t *testing.T) {
	at := time.Duration(0)
	tr := New(10, fixedClock(&at))
	at = time.Second
	tr.Record(3, RadioSleep, "")
	at = 2 * time.Second
	tr.Recordf(4, Reparented, "after %v", 2500*time.Millisecond)

	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Kind != RadioSleep || evs[0].Node != 3 || evs[0].At != time.Second {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if !strings.Contains(evs[1].Detail, "2.5s") {
		t.Fatalf("formatted detail = %q", evs[1].Detail)
	}
	if s := evs[1].String(); !strings.Contains(s, "reparented") || !strings.Contains(s, "2.5s") {
		t.Fatalf("event line = %q", s)
	}
}

func TestRingBufferEviction(t *testing.T) {
	at := time.Duration(0)
	tr := New(3, fixedClock(&at))
	for i := 0; i < 5; i++ {
		at = time.Duration(i) * time.Second
		tr.Record(1, RadioWake, "")
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	// Chronological order with the oldest two evicted.
	for i, e := range evs {
		if want := time.Duration(i+2) * time.Second; e.At != want {
			t.Fatalf("events = %v, want at 2s, 3s, 4s", evs)
		}
	}
}

// TestHugeCapacityAllocatesOnDemand: the capacity is a retention bound,
// not a preallocation, so a request for 2^40 events (which no machine
// could back up front) costs only the events actually recorded.
func TestHugeCapacityAllocatesOnDemand(t *testing.T) {
	at := time.Duration(0)
	tr := New(1<<40, fixedClock(&at))
	for i := 0; i < 3; i++ {
		at = time.Duration(i) * time.Millisecond
		tr.Record(2, RadioSleep, "")
	}
	if evs := tr.Events(); len(evs) != 3 || evs[2].At != 2*time.Millisecond {
		t.Fatalf("events = %v, want 3 in order", evs)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{RadioSleep, RadioWake, NodeFailed, Reparented, Recovered}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "kind(") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if Kind(200).String() != "kind(200)" {
		t.Error("unknown kind fallback broken")
	}
}

func TestInvalidConstruction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero capacity accepted")
		}
	}()
	New(0, func() time.Duration { return 0 })
}
