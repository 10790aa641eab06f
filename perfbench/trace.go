package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Name is
// "<layer>.<call>", where the layer is the repository module that owns the
// call (dse, core, serve, ...). Spans of one query or request share Req;
// Parent is the index of the enclosing span, -1 at the top level.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so untraced runs pay one nil check
// per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an already-measured interval, for phases the benchmark only
// sees from outside (a sweep's scan ends at its last progress callback).
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)),
		End: int64(end.Sub(t.t0)), Parent: parent, Req: req})
	t.mu.Unlock()
}

// layerOf is the module prefix of a span name.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time in seconds: a span's duration
// minus the part of its interval that its child spans cover (children of one
// span can overlap when they run concurrently, so the union is subtracted).
func selfTimes(spans []span) map[string]float64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[string]float64)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		covered := int64(0)
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		lo, hi := int64(-1), int64(-1)
		for _, c := range iv {
			a, b := max(c[0], s.Start), min(c[1], s.End)
			if a >= b {
				continue
			}
			if a > hi {
				covered += hi - lo
				lo, hi = a, b
			} else if b > hi {
				hi = b
			}
		}
		covered += hi - lo
		self[layerOf(s.Name)] += float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// traceFile is the span file a traced run writes at exit.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfS    map[string]float64 `json:"layer_self_s"`
	Spans    []span             `json:"spans"`
}

// write stores every span plus the per-layer self times in one JSON file and
// returns the self times.
func (t *tracer) write(dir, workload string, seed int64) (map[string]float64, string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return nil, "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(traceFile{Workload: workload, Seed: seed, SelfS: self, Spans: t.spans}); err != nil {
		f.Close()
		return nil, "", err
	}
	return self, path, f.Close()
}
