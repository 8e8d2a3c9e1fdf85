package phy

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"github.com/essat/essat/internal/geom"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/topology"
)

// This file checks the channel's station-table fan-out against refChannel,
// a slow oracle with the pre-mirror design: each station subscribes to its
// radio to drop a lock, every state is read from the Radio itself, the
// in-flight list is scanned, and carrier edges reach every enabled station,
// whose receiver ignores them while its radio is off (as the MAC did).
// Both channels run the same random program of TurnOn / TurnOff / Suspend /
// Resume / Disable / StartTx / CarrierBusy operations, each on its own
// engine, and must log the same frame fates, carrier edges, carrier-sense
// answers, radio transitions and Stats.

// refStation is one oracle station.
type refStation struct {
	id        NodeID
	radio     *radio.Radio
	rx        Receiver
	enabled   bool
	disabled  bool
	carriers  int
	receiving *Frame
	corrupted bool
}

// refChannel is the oracle: the disc model without loss, written for
// clarity over speed.
type refChannel struct {
	eng      *sim.Engine
	topo     *topology.Topology
	bitrate  int64
	overhead time.Duration
	st       []*refStation
	active   []*Frame
	nextID   uint64
	stats    Stats
}

func newRefChannel(eng *sim.Engine, topo *topology.Topology, cfg Config) *refChannel {
	return &refChannel{eng: eng, topo: topo, bitrate: cfg.BitRate, overhead: cfg.PerFrameOverhead,
		st: make([]*refStation, topo.NumNodes())}
}

func (c *refChannel) Attach(id NodeID, r *radio.Radio, rx Receiver) {
	st := &refStation{id: id, radio: r, rx: rx, enabled: true}
	c.st[id] = st
	r.Subscribe(func(old, new radio.State) {
		if st.receiving != nil && new != radio.Rx {
			st.receiving = nil
			st.corrupted = false
		}
	})
}

func (c *refChannel) CarrierBusy(id NodeID) bool {
	r := c.st[id].radio
	if !r.IsListening() && r.State() != radio.Tx {
		return false
	}
	return c.st[id].carriers > 0 || r.State() == radio.Tx
}

func (c *refChannel) Enabled(id NodeID) bool { return c.st[id].enabled }

func (c *refChannel) Disable(id NodeID) {
	st := c.st[id]
	st.enabled, st.disabled, st.receiving = false, true, nil
	st.radio.Shutdown()
}

func (c *refChannel) Suspend(id NodeID) {
	st := c.st[id]
	st.enabled, st.receiving, st.corrupted, st.carriers = false, nil, false, 0
	st.radio.Shutdown()
}

func (c *refChannel) Resume(id NodeID) {
	st := c.st[id]
	if st.enabled || st.disabled {
		return
	}
	st.enabled = true
	st.radio.Restore()
	st.carriers = 0
	for _, f := range c.active {
		if c.topo.Connected(f.Src, id) {
			st.carriers++
		}
	}
}

func (c *refChannel) StartTx(src, dst NodeID, bytes int, payload any) {
	f := &Frame{ID: c.nextID, Src: src, Dst: dst, Bytes: bytes, Payload: payload}
	c.nextID++
	c.stats.Transmissions++
	c.stats.BytesSent += uint64(bytes)
	c.active = append(c.active, f)
	c.st[src].radio.BeginTx()
	for _, nb := range c.topo.Neighbors(src) {
		rst := c.st[nb]
		if !rst.enabled {
			continue
		}
		rst.carriers++
		if rst.carriers == 1 {
			rst.rx.CarrierChanged(true)
		}
		switch {
		case rst.receiving != nil:
			rst.corrupted = true
			c.stats.Collisions++
		case rst.radio.CanReceive():
			rst.receiving, rst.corrupted = f, false
			rst.radio.BeginRx()
		default:
			c.stats.MissedAsleep++
		}
	}
	dur := c.overhead + time.Duration(int64(bytes)*8*int64(time.Second)/c.bitrate)
	c.eng.After(dur, func() { c.endTx(f) })
}

func (c *refChannel) endTx(f *Frame) {
	if r := c.st[f.Src].radio; r.State() == radio.Tx {
		r.EndTx()
	}
	for _, nb := range c.topo.Neighbors(f.Src) {
		rst := c.st[nb]
		if !rst.enabled {
			continue
		}
		rst.carriers--
		if rst.receiving == f {
			corrupted := rst.corrupted
			rst.receiving, rst.corrupted = nil, false
			if !corrupted {
				if f.Dst == Broadcast || f.Dst == rst.id {
					c.stats.Deliveries++
				} else {
					c.stats.Overheard++
				}
				rst.rx.FrameDelivered(f)
			}
			rst.radio.EndRx()
		}
		if rst.carriers == 0 {
			rst.rx.CarrierChanged(false)
		}
	}
	for i, a := range c.active {
		if a == f {
			c.active = append(c.active[:i], c.active[i+1:]...)
			break
		}
	}
}

func (c *refChannel) Stats() Stats { return c.stats }

// fanoutChannel is what the program drives; *Channel (through realFanout)
// and *refChannel both implement it.
type fanoutChannel interface {
	Attach(id NodeID, r *radio.Radio, rx Receiver)
	StartTx(src, dst NodeID, bytes int, payload any)
	CarrierBusy(id NodeID) bool
	Enabled(id NodeID) bool
	Suspend(id NodeID)
	Resume(id NodeID)
	Disable(id NodeID)
	Stats() Stats
}

type realFanout struct{ *Channel }

func (c realFanout) StartTx(src, dst NodeID, bytes int, payload any) {
	c.Channel.StartTx(src, dst, bytes, payload)
}

// fanoutWorld is one channel with its engine, radios and event log.
type fanoutWorld struct {
	eng    *sim.Engine
	ch     fanoutChannel
	radios []*radio.Radio
	log    []string
	// flaky[i] makes station i turn its radio off from inside a listener
	// on every second Rx entry (1) or wake-up (2): nested transitions.
	flaky  []byte
	nested []int
}

func (w *fanoutWorld) logf(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%v ", w.eng.Now())+fmt.Sprintf(format, args...))
}

// fanoutRx records what a MAC would observe at one station. The oracle's
// receivers drop edges while their radio is off; the real channel must
// never send one there.
type fanoutRx struct {
	w      *fanoutWorld
	id     NodeID
	oracle bool
}

func (x *fanoutRx) FrameDelivered(f *Frame) {
	x.w.logf("deliver %d: frame %d %d->%d", x.id, f.ID, f.Src, f.Dst)
}

func (x *fanoutRx) CarrierChanged(busy bool) {
	if !x.w.radios[x.id].IsOn() {
		if x.oracle {
			return
		}
		x.w.logf("edge at unpowered station %d", x.id)
	}
	x.w.logf("carrier %d %v", x.id, busy)
}

// fanoutOp is one program step.
type fanoutOp struct {
	at        time.Duration
	kind      byte
	node, dst NodeID
	bytes     int
}

// fanoutProgram is a decoded fuzz input.
type fanoutProgram struct {
	n        int
	radioCfg radio.Config
	flaky    []byte
	ops      []fanoutOp
}

// decodeFanout turns arbitrary bytes into a program: a header byte picks
// the station count and radio delays, a second byte the flaky stations,
// and every further 4 bytes one operation within the first 65 ms.
func decodeFanout(data []byte) fanoutProgram {
	var p fanoutProgram
	if len(data) < 2 {
		return p
	}
	p.n = 3 + int(data[0]%5)
	if data[0]&0x80 == 0 {
		p.radioCfg = radio.Config{TurnOnDelay: 250 * time.Microsecond, TurnOffDelay: 100 * time.Microsecond}
	}
	p.flaky = make([]byte, p.n)
	for i := range p.flaky {
		p.flaky[i] = (data[1] >> (2 * (i % 4))) & 3 % 3
	}
	for b := data[2:]; len(b) >= 4; b = b[4:] {
		op := fanoutOp{
			at:    time.Duration(int(b[2])<<8|int(b[3])) * time.Microsecond,
			kind:  b[0] % 8,
			node:  NodeID(int(b[1]) % p.n),
			dst:   NodeID(int(b[1])/p.n%(p.n+1)) - 1,
			bytes: 14 + int(b[0]>>3)*4,
		}
		if op.kind == 7 && b[0]>>3%4 != 0 {
			op.kind = 2 // keep permanent Disable rare
		}
		p.ops = append(p.ops, op)
	}
	return p
}

// runFanout runs p on the real channel (oracle false) or on refChannel.
func runFanout(p fanoutProgram, oracle bool) *fanoutWorld {
	eng := sim.New(1)
	topo, err := topology.FromPositions(geom.LinePlacement(p.n, 60), 125)
	if err != nil {
		panic(err)
	}
	w := &fanoutWorld{eng: eng, flaky: p.flaky, nested: make([]int, p.n)}
	if oracle {
		w.ch = newRefChannel(eng, topo, DefaultConfig())
	} else {
		ch, err := NewChannel(eng, topo, DefaultConfig())
		if err != nil {
			panic(err)
		}
		w.ch = realFanout{ch}
	}
	for i := 0; i < p.n; i++ {
		id := NodeID(i)
		r := radio.New(eng, p.radioCfg)
		w.radios = append(w.radios, r)
		// Subscribed before Attach, so it runs before anything the
		// channel might hang on the radio: a stale copy of the state
		// would show in its carrier-sense answer.
		r.Subscribe(func(old, new radio.State) {
			w.logf("radio %d %v->%v busy=%v", id, old, new, w.ch.CarrierBusy(id))
			nestOff := (w.flaky[id] == 1 && new == radio.Rx) ||
				(w.flaky[id] == 2 && new == radio.Idle && (old == radio.TurningOn || old == radio.Off))
			if nestOff {
				if w.nested[id]++; w.nested[id]%2 == 0 {
					r.TurnOff()
				}
			}
		})
		w.ch.Attach(id, r, &fanoutRx{w: w, id: id, oracle: oracle})
	}
	for _, op := range p.ops {
		op := op
		eng.Schedule(op.at, func() { w.apply(op) })
	}
	eng.Run(time.Second)
	w.logf("stats %+v", w.ch.Stats())
	for i, r := range w.radios {
		w.logf("final %d %v enabled=%v busy=%v", i, r.State(), w.ch.Enabled(NodeID(i)), w.ch.CarrierBusy(NodeID(i)))
	}
	return w
}

func (w *fanoutWorld) apply(op fanoutOp) {
	r := w.radios[op.node]
	switch op.kind {
	case 0, 1:
		if !w.ch.Enabled(op.node) || !r.IsListening() {
			w.logf("tx %d skipped (%v)", op.node, r.State())
			return
		}
		dst := op.dst
		if dst == op.node {
			dst = Broadcast
		}
		w.logf("tx %d->%d %dB", op.node, dst, op.bytes)
		w.ch.StartTx(op.node, dst, op.bytes, nil)
	case 2:
		r.TurnOn()
	case 3:
		r.TurnOff()
	case 4:
		w.ch.Suspend(op.node)
	case 5:
		w.ch.Resume(op.node)
	case 6:
		for i := range w.radios {
			w.logf("sense %d %v", i, w.ch.CarrierBusy(NodeID(i)))
		}
	case 7:
		w.ch.Disable(op.node)
	}
}

// checkFanout runs data on both channels and reports the first divergence.
func checkFanout(t *testing.T, data []byte) {
	t.Helper()
	p := decodeFanout(data)
	if p.n == 0 {
		return
	}
	got, want := runFanout(p, false).log, runFanout(p, true).log
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			lo := max(0, i-6)
			t.Fatalf("event %d diverges from the oracle:\n got  %q\n want %q\ncontext (real):\n%q",
				i, got[i], want[i], got[lo:i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("real channel logged %d events, oracle %d", len(got), len(want))
	}
}

func randomFanoutInput(rng *rand.Rand) []byte {
	b := make([]byte, 2+4*(8+rng.Intn(56)))
	rng.Read(b)
	return b
}

func TestChannelFanoutMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		checkFanout(t, randomFanoutInput(rng))
	}
}

func FuzzChannelFanout(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 8; i++ {
		f.Add(randomFanoutInput(rng))
	}
	f.Fuzz(checkFanout)
}

// TestStationFitsOneCacheLine pins the station row, mirror included, to
// one 64-byte line: the fan-out loops touch one line per neighbor.
func TestStationFitsOneCacheLine(t *testing.T) {
	if sz := unsafe.Sizeof(station{}); sz > 64 {
		t.Fatalf("station is %d bytes, want <= 64", sz)
	}
}

// TestActiveListOutOfOrderEnds overlaps transmissions that end out of
// FIFO order and checks, after every end, that the in-flight list's
// indices are consistent and that Resume of a suspended station rebuilds
// exactly the number of in-flight transmissions in its range.
func TestActiveListOutOfOrderEnds(t *testing.T) {
	// Line 0-1-2-3-4-5 at 60 m, range 125 m: station 2 hears 0, 1, 3, 4
	// and not 5.
	eng := sim.New(1)
	topo, err := topology.FromPositions(geom.LinePlacement(6, 60), 125)
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := NewChannel(eng, topo, DefaultConfig())
	for i := 0; i < 6; i++ {
		ch.Attach(NodeID(i), radio.New(eng, radio.Config{}), &mockRx{})
	}
	const watched NodeID = 2
	ch.Suspend(watched)
	// Longest first: frames end in the reverse of their start order,
	// interleaved with an out-of-range sender.
	for i, src := range []NodeID{0, 5, 1, 3, 4} {
		ch.StartTx(src, Broadcast, 200-30*i, nil)
	}
	check := func(when string) {
		t.Helper()
		want := 0
		for i, tx := range ch.active {
			if tx.idx != i {
				t.Fatalf("%s: active[%d].idx = %d", when, i, tx.idx)
			}
			if topo.Connected(tx.frame.Src, watched) {
				want++
			}
		}
		ch.Resume(watched)
		if got := int(ch.stations[watched].carriers); got != want {
			t.Fatalf("%s: Resume rebuilt %d carriers, want %d in-range in flight", when, got, want)
		}
		ch.Suspend(watched)
	}
	check("all in flight")
	ends := 0
	for len(ch.active) > 0 {
		before := len(ch.active)
		eng.Step()
		if len(ch.active) < before {
			ends++
			check(fmt.Sprintf("after end %d", ends))
		}
	}
	if ends != 5 {
		t.Fatalf("saw %d ends, want 5", ends)
	}
}
