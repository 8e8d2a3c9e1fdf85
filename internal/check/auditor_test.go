package check

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/essat/essat/internal/phy"
	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/sim"
)

func newTestAuditor() (*Auditor, *sim.Engine) {
	eng := sim.New(1)
	return New(eng.Now), eng
}

// TestInvariantsFire drives each auditor hook with a deliberately
// corrupted observation and verifies the matching rule trips — the
// auditor must not only pass clean runs, it must actually catch broken
// ones.
func TestInvariantsFire(t *testing.T) {
	frame := &phy.Frame{ID: 7, Src: 3, Dst: 4, Bytes: 52}
	spec := query.Spec{ID: 1, Period: time.Second, Phase: 100 * time.Millisecond}

	cases := []struct {
		name    string
		rule    string
		corrupt func(a *Auditor)
	}{
		{
			name: "event pops travel back in time",
			rule: "event-order",
			corrupt: func(a *Auditor) {
				a.EventFired(20*time.Millisecond, 5)
				a.EventFired(10*time.Millisecond, 6)
			},
		},
		{
			name: "event pops repeat a (at, seq) pair",
			rule: "event-order",
			corrupt: func(a *Auditor) {
				a.EventFired(20*time.Millisecond, 5)
				a.EventFired(20*time.Millisecond, 5)
			},
		},
		{
			name: "event at negative time",
			rule: "event-order",
			corrupt: func(a *Auditor) {
				a.EventFired(-time.Millisecond, 0)
			},
		},
		{
			name: "transmission from a powered-down radio",
			rule: "tx-awake",
			corrupt: func(a *Auditor) {
				a.TxStarted(frame, radio.Off, true)
			},
		},
		{
			name: "transmission from a disabled (crashed) station",
			rule: "tx-awake",
			corrupt: func(a *Auditor) {
				a.TxStarted(frame, radio.Idle, false)
			},
		},
		{
			name: "transmission while transitioning",
			rule: "tx-awake",
			corrupt: func(a *Auditor) {
				a.TxStarted(frame, radio.TurningOn, true)
			},
		},
		{
			name: "data transmit inside the NAV",
			rule: "nav-respected",
			corrupt: func(a *Auditor) {
				a.DataTransmit(3, 10*time.Millisecond, 12*time.Millisecond)
			},
		},
		{
			name: "sleep through a sub-break-even gap",
			rule: "break-even",
			corrupt: func(a *Auditor) {
				a.Slept(3, 0, 2*time.Millisecond, 3*time.Millisecond)
			},
		},
		{
			name: "report from an unregistered query",
			rule: "report-registered",
			corrupt: func(a *Auditor) {
				a.WrapSink(nil).ReportArrived(99, 0, time.Millisecond, 1)
			},
		},
		{
			name: "report for a negative interval",
			rule: "report-registered",
			corrupt: func(a *Auditor) {
				a.RegisterQuery(spec)
				a.WrapSink(nil).ReportArrived(spec.ID, -1, time.Millisecond, 1)
			},
		},
		{
			name: "report arriving before its interval started",
			rule: "report-registered",
			corrupt: func(a *Auditor) {
				a.RegisterQuery(spec)
				a.WrapSink(nil).ReportArrived(spec.ID, 3, -time.Millisecond, 1)
			},
		},
		{
			name: "interval closed with zero coverage",
			rule: "report-registered",
			corrupt: func(a *Auditor) {
				a.RegisterQuery(spec)
				a.WrapSink(nil).IntervalClosed(spec.ID, 0, time.Millisecond, 0)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, _ := newTestAuditor()
			tc.corrupt(a)
			if a.Clean() {
				t.Fatalf("corrupted observation did not trip any invariant")
			}
			found := false
			for _, v := range a.Violations() {
				if v.Rule == tc.rule {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("expected rule %q to fire, got %v", tc.rule, a.Violations())
			}
		})
	}
}

// TestCleanObservationsStayClean feeds the auditor a well-formed
// observation sequence and expects no violations.
func TestCleanObservationsStayClean(t *testing.T) {
	a, _ := newTestAuditor()
	spec := query.Spec{ID: 1, Period: time.Second}
	a.RegisterQuery(spec)
	a.EventFired(0, 0)
	a.EventFired(0, 1)
	a.EventFired(time.Millisecond, 2)
	a.TxStarted(&phy.Frame{ID: 1, Src: 2, Dst: 3, Bytes: 52}, radio.Idle, true)
	a.DataTransmit(2, 10*time.Millisecond, 10*time.Millisecond) // NAV expired exactly now: legal
	a.Slept(2, 0, 10*time.Millisecond, 3*time.Millisecond)
	sink := a.WrapSink(nil)
	sink.ReportArrived(1, 0, 50*time.Millisecond, 3)
	sink.IntervalClosed(1, 0, 60*time.Millisecond, 3)
	if !a.Clean() {
		t.Fatalf("clean sequence produced violations: %v", a.Violations())
	}
	if a.Summary().Events != 3 {
		t.Fatalf("Events = %d, want 3", a.Summary().Events)
	}
}

// TestRadioWatchCatchesAccountingDrift builds a real radio, then
// verifies the watcher accepts its (correct) accounting, and that the
// digest reflects transitions.
func TestRadioWatchCatchesAccountingDrift(t *testing.T) {
	a, eng := newTestAuditor()
	r := radio.New(eng, radio.Config{TurnOnDelay: time.Millisecond, TurnOffDelay: time.Millisecond})
	a.WatchRadio(5, r, radio.Mica2Power())
	eng.Schedule(10*time.Millisecond, r.TurnOff)
	eng.Schedule(30*time.Millisecond, r.TurnOn)
	eng.Run(50 * time.Millisecond)
	if !a.Clean() {
		t.Fatalf("correct radio accounting flagged: %v", a.Violations())
	}
	if a.Digest() == New(eng.Now).Digest() {
		t.Fatal("radio transitions did not reach the digest")
	}
}

// TestDigestDeterministicAndSensitive: identical observation streams
// hash identically; a one-record difference changes the hash.
func TestDigestDeterministicAndSensitive(t *testing.T) {
	feed := func(n int) string {
		a, _ := newTestAuditor()
		for i := 0; i < n; i++ {
			a.EventFired(time.Duration(i)*time.Millisecond, uint64(i))
		}
		return a.Digest()
	}
	if feed(10) != feed(10) {
		t.Fatal("identical streams produced different digests")
	}
	if feed(10) == feed(11) {
		t.Fatal("different streams produced identical digests")
	}
}

// TestViolationCapAndTotal: retained violations are capped, the total
// keeps counting, and Summary carries both.
func TestViolationCapAndTotal(t *testing.T) {
	a, _ := newTestAuditor()
	for i := 0; i < maxRetained+10; i++ {
		a.TxStarted(&phy.Frame{ID: uint64(i), Src: 1, Dst: 2, Bytes: 1}, radio.Off, true)
	}
	s := a.Summary()
	if len(s.Violations) != maxRetained {
		t.Fatalf("retained %d violations, want cap %d", len(s.Violations), maxRetained)
	}
	if s.Total != maxRetained+10 {
		t.Fatalf("Total = %d, want %d", s.Total, maxRetained+10)
	}
	if !strings.Contains(s.Violations[0].String(), "tx-awake") {
		t.Fatalf("violation string %q missing rule", s.Violations[0])
	}
}

// TestRadioRulesFire proves the two radio rules live: each case drives a
// real radio whose observation is corrupted in one way and expects
// exactly that rule to trip.
func TestRadioRulesFire(t *testing.T) {
	cases := []struct {
		name    string
		rule    string
		ahead   time.Duration // auditor clock minus engine clock
		profile radio.PowerProfile
	}{
		{
			name:    "auditor clock runs ahead of the radio's engine",
			rule:    "time-conserved",
			ahead:   time.Millisecond,
			profile: radio.Mica2Power(),
		},
		{
			name:    "negative draw across an Off period",
			rule:    "energy-monotone",
			profile: radio.PowerProfile{Sleep: -1, Idle: 0.03, Rx: 0.03, Tx: 0.08, Transition: 0.03},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New(1)
			a := New(func() time.Duration { return eng.Now() + tc.ahead })
			r := radio.New(eng, radio.Config{})
			a.WatchRadio(5, r, tc.profile)
			eng.Schedule(time.Millisecond, r.TurnOff)
			eng.Schedule(11*time.Millisecond, r.TurnOn)
			eng.Run(20 * time.Millisecond)
			if a.Clean() {
				t.Fatal("corrupted radio observation did not trip any invariant")
			}
			for _, v := range a.Violations() {
				if v.Rule != tc.rule {
					t.Fatalf("rule %q fired, want only %q: %v", v.Rule, tc.rule, a.Violations())
				}
			}
		})
	}
}

// TestAuditedEnergyMatchesRadio checks the auditor's memoised energy
// against Radio.Energy after every transition of a radio cycling
// through every state: the two must agree to the bit.
func TestAuditedEnergyMatchesRadio(t *testing.T) {
	a, eng := newTestAuditor()
	r := radio.New(eng, radio.Config{TurnOnDelay: 2500 * time.Microsecond, TurnOffDelay: 500 * time.Microsecond})
	p := radio.Mica2Power()
	w := &watchedRadio{a: a, id: 5, r: r, profile: p}
	r.SubscribeState(w)
	checked := 0
	r.Subscribe(func(old, new radio.State) {
		if got, want := w.lastEnergy, r.Energy(p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v→%v at %v: audited energy %v, Radio.Energy %v", old, new, eng.Now(), got, want)
		}
		checked++
	})
	for k := 0; k < 20; k++ {
		base := time.Duration(k) * 37 * time.Millisecond
		eng.Schedule(base+time.Millisecond, func() { r.BeginRx() })
		eng.Schedule(base+3*time.Millisecond+333*time.Microsecond, r.EndRx)
		eng.Schedule(base+5*time.Millisecond, r.BeginTx)
		eng.Schedule(base+6*time.Millisecond+7*time.Nanosecond, r.EndTx)
		eng.Schedule(base+9*time.Millisecond, r.TurnOff)
		eng.Schedule(base+29*time.Millisecond+123*time.Nanosecond, r.TurnOn)
	}
	eng.Run(time.Second)
	if !a.Clean() {
		t.Fatalf("correct radio accounting flagged: %v", a.Violations())
	}
	if checked != 20*8 {
		t.Fatalf("checked %d transitions, want %d", checked, 20*8)
	}
}

// referenceDigest is FNV-1a 64 fed one byte at a time, by hash/fnv, over
// the auditor's record encoding: a tag byte, then each value's eight
// bytes, least significant first.
type referenceDigest struct{ h hash.Hash64 }

func newReferenceDigest() *referenceDigest { return &referenceDigest{h: fnv.New64a()} }

func (r *referenceDigest) mix(tag byte, vals ...uint64) {
	r.h.Write([]byte{tag})
	for _, v := range vals {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		r.h.Write(b[:])
	}
}

func (r *referenceDigest) digest() string { return fmt.Sprintf("%016x", r.h.Sum64()) }

// digestBoundaryValues are the values whose byte length changes: 0, 1,
// 255, 256, every 2^k and 2^k±1, and 2^64−1.
func digestBoundaryValues() []uint64 {
	vals := []uint64{0, 1, 255, 256, math.MaxUint64, math.MaxUint64 - 1}
	for k := 1; k < 64; k++ {
		p := uint64(1) << k
		vals = append(vals, p-1, p, p+1)
	}
	return vals
}

// TestDigestMatchesReference checks mix, which folds each value's high
// zero bytes as one multiply, against byte-at-a-time FNV-1a on boundary
// values and on every record shape the auditor emits (zero to four
// values), chained across records as a run chains them.
func TestDigestMatchesReference(t *testing.T) {
	vals := digestBoundaryValues()
	a, _ := newTestAuditor()
	ref := newReferenceDigest()
	for i, v := range vals {
		a.mix(tagEvent, v)
		ref.mix(tagEvent, v)
		if got, want := a.Digest(), ref.digest(); got != want {
			t.Fatalf("after value %#x: digest %s, reference %s", v, got, want)
		}
		w := vals[(i*7+3)%len(vals)]
		shapes := [][]uint64{nil, {w, v}, {v, 0, w}, {uint64(i), v, w, math.MaxUint64}}
		for _, rec := range shapes {
			tag := byte(len(rec) + 1)
			a.mix(tag, rec...)
			ref.mix(tag, rec...)
			if got, want := a.Digest(), ref.digest(); got != want {
				t.Fatalf("after record %d %#x: digest %s, reference %s", tag, rec, got, want)
			}
		}
	}
}

// FuzzDigestMix checks mix against byte-at-a-time FNV-1a on arbitrary
// records of up to four values.
func FuzzDigestMix(f *testing.F) {
	f.Add(byte(tagRadio), uint64(5), uint64(radio.Idle), uint64(radio.Rx), uint64(12345678), uint8(4))
	f.Add(byte(tagEvent), uint64(0), uint64(math.MaxUint64), uint64(0), uint64(0), uint8(2))
	f.Add(byte(0), uint64(256), uint64(1<<56), uint64(1<<56-1), uint64(255), uint8(3))
	f.Fuzz(func(t *testing.T, tag byte, v0, v1, v2, v3 uint64, n uint8) {
		rec := []uint64{v0, v1, v2, v3}[:n%5]
		a, _ := newTestAuditor()
		ref := newReferenceDigest()
		a.mix(tag, rec...)
		ref.mix(tag, rec...)
		if got, want := a.Digest(), ref.digest(); got != want {
			t.Fatalf("record %d %#x: digest %s, reference %s", tag, rec, got, want)
		}
	})
}
