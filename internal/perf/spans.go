package perf

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	ipm2 "repro/internal/pm2"
)

// Span is one timed interval of the traced pass, recorded by the benchmark
// around its own calls into the program. Host times are nanoseconds since
// the pass began; virtual times are the cluster clock in microseconds
// (zero before a cluster exists). Events counts the kernel events the
// cluster executed inside the span.
type Span struct {
	ID          int     `json:"id"`
	Parent      int     `json:"parent"`
	Name        string  `json:"name"`
	HostStartNs int64   `json:"host_start_ns"`
	HostEndNs   int64   `json:"host_end_ns"`
	VirtStartUs float64 `json:"virt_start_us"`
	VirtEndUs   float64 `json:"virt_end_us"`
	Events      uint64  `json:"events"`
}

// spanLog keeps the spans of one traced pass in memory; they are written
// out only when the pass is over. A nil *spanLog records nothing, which is
// how untraced passes run the same code.
type spanLog struct {
	origin time.Time
	spans  []Span
	stack  []int
	steps  []uint64
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func clusterClock(cl *ipm2.Cluster) (float64, uint64) {
	if cl == nil {
		return 0, 0
	}
	return cl.Now().Micros(), cl.Engine().Steps()
}

// begin opens a span as a child of the innermost open one.
func (l *spanLog) begin(name string, cl *ipm2.Cluster) {
	if l == nil {
		return
	}
	parent := -1
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	us, steps := clusterClock(cl)
	id := len(l.spans)
	l.spans = append(l.spans, Span{
		ID: id, Parent: parent, Name: name,
		HostStartNs: time.Since(l.origin).Nanoseconds(), VirtStartUs: us,
	})
	l.stack = append(l.stack, id)
	l.steps = append(l.steps, steps)
}

// end closes the innermost open span. cl may differ from the cluster the
// span began on (a restore replaces it); events are then counted on cl
// alone.
func (l *spanLog) end(cl *ipm2.Cluster) {
	if l == nil {
		return
	}
	n := len(l.stack) - 1
	s := &l.spans[l.stack[n]]
	us, steps := clusterClock(cl)
	s.HostEndNs = time.Since(l.origin).Nanoseconds()
	s.VirtEndUs = us
	if start := l.steps[n]; steps >= start {
		s.Events = steps - start
	} else {
		s.Events = steps
	}
	l.stack, l.steps = l.stack[:n], l.steps[:n]
}

// write stores the spans as spans.jsonl (one JSON object per line) and as
// a Chrome trace-event file, trace.json, that any trace viewer opens.
func (l *spanLog) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(l.spans))
	for i, s := range l.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.HostStartNs) / 1e3,
			Dur: float64(s.HostEndNs-s.HostStartNs) / 1e3,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "events": s.Events,
				"virt_start_us": s.VirtStartUs, "virt_end_us": s.VirtEndUs,
			},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "trace.json"), data, 0o644); err != nil {
		return fmt.Errorf("perf: writing trace.json: %w", err)
	}
	return nil
}
