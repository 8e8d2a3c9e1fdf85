package radio

import "time"

// PowerProfile gives the radio's power draw per state, in watts. Duty
// cycle is a hardware-independent proxy; the profile turns state
// residency into joules for lifetime estimates.
type PowerProfile struct {
	// Sleep is the draw while Off.
	Sleep float64
	// Idle is the draw while listening with no frame in the air.
	Idle float64
	// Rx is the draw while receiving.
	Rx float64
	// Tx is the draw while transmitting.
	Tx float64
	// Transition is the draw while turning on or off.
	Transition float64
}

// Mica2Power returns a CC1000-class profile at 3 V: ~10 mA listening and
// receiving, ~27 mA transmitting at full power, <2 µA in sleep, and
// transition draw comparable to listening.
func Mica2Power() PowerProfile {
	return PowerProfile{
		Sleep:      6e-6,
		Idle:       0.030,
		Rx:         0.030,
		Tx:         0.081,
		Transition: 0.030,
	}
}

// StateSeconds is a Ledger converted to seconds, indexed by State.
type StateSeconds [numStates]float64

// Joules returns the energy of the given per-state residency under p.
// Radio.Energy and the invariant auditor's incremental energy check both
// evaluate it, so their results agree to the bit.
func (p PowerProfile) Joules(sec *StateSeconds) float64 {
	return sec[Off]*p.Sleep +
		sec[Idle]*p.Idle +
		sec[Rx]*p.Rx +
		sec[Tx]*p.Tx +
		(sec[TurningOn]+sec[TurningOff])*p.Transition
}

// Energy returns the joules consumed so far under profile p, from the
// radio's per-state residency times.
func (r *Radio) Energy(p PowerProfile) float64 {
	var sec StateSeconds
	for s, d := range r.Ledger() {
		sec[s] = d.Seconds()
	}
	return p.Joules(&sec)
}

// AveragePower returns the mean draw in watts since time zero, or the
// idle draw if no time has elapsed.
func (r *Radio) AveragePower(p PowerProfile) float64 {
	elapsed := r.eng.Now().Seconds()
	if elapsed <= 0 {
		return p.Idle
	}
	return r.Energy(p) / elapsed
}

// Lifetime estimates how long a node with the given battery capacity
// (joules) would last at the radio's observed average power draw. A pair
// of AA cells holds roughly 20 kJ usable. Returns a very large value for
// a draw of effectively zero.
func (r *Radio) Lifetime(p PowerProfile, capacityJoules float64) time.Duration {
	draw := r.AveragePower(p)
	if draw <= 0 {
		return time.Duration(1<<63 - 1)
	}
	seconds := capacityJoules / draw
	const maxSec = float64(1<<63-1) / float64(time.Second)
	if seconds >= maxSec {
		return time.Duration(1<<63 - 1)
	}
	return time.Duration(seconds * float64(time.Second))
}
