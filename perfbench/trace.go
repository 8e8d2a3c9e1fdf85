package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// layers are the repository's packages the traced run attributes CPU
// samples to, plus the Go runtime. Samples whose leaf frame is in none
// of them count as "other".
var layers = []string{
	"sim", "phy", "mac", "radio", "core", "query", "node", "baseline",
	"topology", "routing", "experiment", "stats", "check", "dynamics",
	"campaign", "serve", "runtime", "other",
}

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil tracer records nothing, so
// untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 = root) and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// spanRow aggregates every span of one name.
type spanRow struct {
	name        string
	count       int
	total, self time.Duration
}

// spanTable aggregates spans by name. A span's self time is its
// duration minus the union of its children's intervals (children of
// one parent may overlap when they run on different workers).
func (t *tracer) spanTable() []spanRow {
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	rows := map[string]*spanRow{}
	var order []string
	for _, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &spanRow{name: s.Name}
			rows[s.Name] = r
			order = append(order, s.Name)
		}
		d := s.End - s.Start
		r.count++
		r.total += time.Duration(d)
		r.self += time.Duration(d - union(children[s.ID]))
	}
	out := make([]spanRow, len(order))
	for i, name := range order {
		out[i] = *rows[name]
	}
	return out
}

// union is the total length covered by a set of intervals.
func union(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	started := false
	var start int64
	for _, x := range iv {
		switch {
		case !started:
			start, end, started = x[0], x[1], true
		case x[0] > end:
			total += end - start
			start, end = x[0], x[1]
		case x[1] > end:
			end = x[1]
		}
	}
	if started {
		total += end - start
	}
	return total
}

// writeSpans dumps every span as one JSON line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf maps a profiled function name to its layer.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation brackets may hold dots and slashes
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	const internal = "github.com/essat/essat/internal/"
	switch {
	case strings.HasPrefix(pkg, internal):
		name := strings.TrimPrefix(pkg, internal)
		for _, l := range layers {
			if l == name {
				return l
			}
		}
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// leafSamples decodes a gzipped pprof CPU profile and counts its
// samples by the layer of their leaf frame. For an inlined call the
// leaf is the innermost inlined function.
func leafSamples(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}

	var strs []string
	funcName := map[uint64]int64{} // function id → string index
	locFunc := map[uint64]uint64{} // location id → leaf function id
	type sample struct {
		loc   uint64
		count int64
	}
	var samples []sample

	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch {
				case n == 1 && first: // location_id, leaf first
					if w == 2 {
						v, _ = binary.Uvarint(b)
					}
					s.loc, first = v, false
				case n == 2 && s.count == 0: // value[0]: sample count
					if w == 2 {
						v, _ = binary.Uvarint(b)
					}
					s.count = int64(v)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			lines := 0
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line; the first one is the innermost function
					if lines == 0 {
						err := eachField(b, func(n, w int, v uint64, _ []byte) error {
							if n == 1 {
								fn = v
							}
							return nil
						})
						if err != nil {
							return err
						}
					}
					lines++
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	byLayer := map[string]int64{}
	var total int64
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.loc]]; i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		byLayer[layerOf(name)] += s.count
		total += s.count
	}
	return byLayer, total, nil
}

var errProto = errors.New("malformed profile protobuf")

// eachField walks the top-level fields of one protobuf message. For
// varint and fixed fields v holds the value; for length-delimited
// fields b holds the bytes.
func eachField(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
