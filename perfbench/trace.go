package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is
// the enclosing span's ID (-1 for a root), so the spans of one
// iteration form a tree under its root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records spans in memory on one goroutine. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span IDs
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span named name under the innermost open span and
// returns its ID.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: time.Since(t.epoch).Nanoseconds()})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNs = time.Since(t.epoch).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

func (s span) seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// selfTimes sums, per span name, the self time of every span in the
// subtree rooted at root: its duration minus the part its children
// cover. Children are timed inside their parent on the same goroutine,
// so they never overlap and the self times of a subtree add up to the
// root's duration.
func (t *tracer) selfTimes(root int) map[string]float64 {
	inTree := map[int]bool{root: true}
	self := map[string]float64{}
	childNs := map[int]int64{}
	// Spans are appended in begin order, so a parent precedes its
	// children and one forward pass settles membership.
	for _, s := range t.spans[root+1:] {
		if inTree[s.Parent] {
			inTree[s.ID] = true
			childNs[s.Parent] += s.EndNs - s.StartNs
		}
	}
	for _, s := range t.spans[root:] {
		if inTree[s.ID] {
			self[s.Name] += float64(s.EndNs-s.StartNs-childNs[s.ID]) / 1e9
		}
	}
	return self
}

// write stores every recorded span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
