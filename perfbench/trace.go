package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// maxSpans bounds the spans one traced run keeps in memory; later
// spans are counted as dropped.
const maxSpans = 1 << 18

// span is one timed call into a layer, recorded from outside it.
// Spans of one control round share its (epoch, round).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Epoch  uint64 `json:"epoch,omitempty"`
	Round  uint64 `json:"round,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Times are
// nanoseconds since the tracer was made.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 4096)}
}

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.t0)) }

// add records a finished span and returns its id, or 0 when the span
// budget is spent.
func (t *tracer) add(s span) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	s.ID = int32(len(t.spans) + 1)
	t.spans = append(t.spans, s)
	return s.ID
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(name, layer string, start time.Time, parent int32) int32 {
	return t.add(span{Name: name, Layer: layer, Parent: parent, Start: t.at(start)})
}

func (t *tracer) close(id int32, end time.Time) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = t.at(end)
	t.mu.Unlock()
}

// selfTimes returns each layer's self time in milliseconds: every
// span's duration minus the part of it its children cover, summed per
// layer.
func (t *tracer) selfTimes() layerSet {
	t.mu.Lock()
	defer t.mu.Unlock()
	return selfTimes(t.spans)
}

func selfTimes(spans []span) layerSet {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for _, s := range spans {
		d := s.End - s.Start
		if d <= 0 {
			continue
		}
		self[s.Layer] += float64(d - covered(s, children[s.ID]))
	}
	out := make(layerSet, len(traceLayers))
	for _, l := range traceLayers {
		out["self."+l+"_ms"] = self[l] / 1e6
	}
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}

// writeTrace writes a traced run's spans as JSON lines, preceded by one
// header line with the environment and the per-layer metrics.
func writeTrace(dir, workload string, seed uint64, env environment, tr *tracer, o *outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-spans.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	header := map[string]any{"workload": workload, "seed": seed, "env": env, "layers": o.layers, "spans": len(tr.spans), "dropped": tr.dropped}
	err = enc.Encode(header)
	for i := 0; err == nil && i < len(tr.spans); i++ {
		err = enc.Encode(tr.spans[i])
	}
	tr.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace output %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote spans to %s\n", path)
	return nil
}
