package radio

import (
	"math"
	"testing"
	"time"

	"github.com/essat/essat/internal/sim"
)

func TestEnergyAccounting(t *testing.T) {
	eng := sim.New(1)
	r := New(eng, Config{})
	p := PowerProfile{Sleep: 0.001, Idle: 0.030, Rx: 0.040, Tx: 0.080, Transition: 0.030}

	// 1s idle, 1s rx, 1s tx, 7s off.
	eng.Schedule(1*time.Second, func() { r.BeginRx() })
	eng.Schedule(2*time.Second, func() { r.EndRx(); r.BeginTx() })
	eng.Schedule(3*time.Second, func() { r.EndTx(); r.TurnOff() })
	eng.Run(10 * time.Second)

	want := 1*0.030 + 1*0.040 + 1*0.080 + 7*0.001
	if got := r.Energy(p); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Energy = %v J, want %v J", got, want)
	}
	if got := r.AveragePower(p); math.Abs(got-want/10) > 1e-12 {
		t.Fatalf("AveragePower = %v W, want %v W", got, want/10)
	}
}

func TestEnergyIncludesTransitions(t *testing.T) {
	eng := sim.New(1)
	r := New(eng, Config{TurnOnDelay: time.Second, TurnOffDelay: time.Second})
	p := PowerProfile{Transition: 0.5, Sleep: 0, Idle: 0}
	eng.Schedule(0, func() { r.TurnOff() })
	eng.Schedule(5*time.Second, func() { r.TurnOn() })
	eng.Run(10 * time.Second)
	// 1s turning off + 1s turning on at 0.5W = 1J.
	if got := r.Energy(p); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("Energy = %v J, want 1 J", got)
	}
}

func TestLifetime(t *testing.T) {
	eng := sim.New(1)
	r := New(eng, Config{})
	p := PowerProfile{Idle: 0.030}
	eng.Run(10 * time.Second) // always idle at 30mW
	// 300 J at 30 mW = 10_000 s.
	if got := r.Lifetime(p, 300); got != 10_000*time.Second {
		t.Fatalf("Lifetime = %v, want 10000s", got)
	}
}

func TestLifetimeZeroDraw(t *testing.T) {
	eng := sim.New(1)
	r := New(eng, Config{})
	r.TurnOff()
	eng.Run(10 * time.Second)
	p := PowerProfile{Sleep: 0}
	if got := r.Lifetime(p, 1); got < time.Duration(1<<62) {
		t.Fatalf("Lifetime at zero draw = %v, want effectively infinite", got)
	}
}

func TestMica2PowerOrdering(t *testing.T) {
	p := Mica2Power()
	if !(p.Sleep < p.Idle && p.Idle <= p.Rx && p.Rx < p.Tx) {
		t.Fatalf("implausible power ordering: %+v", p)
	}
}

func TestAveragePowerAtTimeZero(t *testing.T) {
	eng := sim.New(1)
	r := New(eng, Config{})
	p := Mica2Power()
	if got := r.AveragePower(p); got != p.Idle {
		t.Fatalf("AveragePower at t=0 = %v, want idle draw", got)
	}
}

// TestEnergyFromLedgerMatchesTimeIn checks Energy, now evaluated from one
// Ledger read through PowerProfile.Joules, against the per-state TimeIn
// sum it replaced, to the bit, at every transition of a radio with
// odd-nanosecond residencies in every state.
func TestEnergyFromLedgerMatchesTimeIn(t *testing.T) {
	eng := sim.New(1)
	r := New(eng, Config{TurnOnDelay: 2500*time.Microsecond + 3, TurnOffDelay: 500*time.Microsecond + 1})
	p := Mica2Power()
	timeInSum := func() float64 {
		sec := func(d time.Duration) float64 { return d.Seconds() }
		return sec(r.TimeIn(Off))*p.Sleep +
			sec(r.TimeIn(Idle))*p.Idle +
			sec(r.TimeIn(Rx))*p.Rx +
			sec(r.TimeIn(Tx))*p.Tx +
			(sec(r.TimeIn(TurningOn))+sec(r.TimeIn(TurningOff)))*p.Transition
	}
	checked := 0
	r.Subscribe(func(old, new State) {
		if got, want := r.Energy(p), timeInSum(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v→%v at %v: Energy %v, TimeIn sum %v", old, new, eng.Now(), got, want)
		}
		l := r.Ledger()
		for s := Off; s <= TurningOff; s++ {
			if l[s] != r.TimeIn(s) {
				t.Fatalf("Ledger()[%v] = %v, TimeIn = %v", s, l[s], r.TimeIn(s))
			}
		}
		checked++
	})
	for k := 0; k < 10; k++ {
		base := time.Duration(k)*time.Second + time.Duration(k*k)*time.Nanosecond
		eng.Schedule(base+7*time.Millisecond+11, func() { r.BeginRx() })
		eng.Schedule(base+9*time.Millisecond+13, r.EndRx)
		eng.Schedule(base+20*time.Millisecond+17, r.BeginTx)
		eng.Schedule(base+21*time.Millisecond+19, r.EndTx)
		eng.Schedule(base+40*time.Millisecond+23, r.TurnOff)
		eng.Schedule(base+700*time.Millisecond+29, r.TurnOn)
	}
	eng.Run(10 * time.Second)
	if checked != 10*8 {
		t.Fatalf("checked %d transitions, want 80", checked)
	}
}
