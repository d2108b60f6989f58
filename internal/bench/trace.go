package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Parent is the enclosing span's ID (0 for a root span).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps a run's spans in memory until the run ends. It is safe for
// concurrent use: the loopback workload records HTTP spans from its worker
// goroutines.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(parent int, layer, name string) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Workload: t.workload, StartNS: now, EndNS: -1})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNS = now
	return time.Duration(s.EndNS - s.StartNS)
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(parent int, layer, name string, fn func() error) (time.Duration, error) {
	id := t.begin(parent, layer, name)
	err := fn()
	return t.end(id), err
}

// selfMS returns every layer's self time in milliseconds: each span's
// duration minus the part of it its child spans cover (children may overlap
// each other when they ran concurrently), summed per layer.
func (t *tracer) selfMS() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		if s.EndNS < 0 {
			continue
		}
		self := s.EndNS - s.StartNS - covered(s, children[s.ID])
		out[s.Layer] += float64(self) / 1e6
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to parent.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if k.EndNS >= 0 && hi > lo {
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

// write stores the spans as one JSON array in dir and returns the file path.
func (t *tracer) write(dir string, seed int64) (string, error) {
	t.mu.Lock()
	blob, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", t.workload, seed))
	return path, os.WriteFile(path, blob, 0o644)
}
