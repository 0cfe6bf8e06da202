package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// procStart anchors every host timestamp of a run: setup_s counts from
// here and span times are offsets from it.
var procStart = time.Now()

// tracer records spans around the driver's calls into each layer. It
// keeps them in memory and writes them out when the run ends; a nil
// tracer records nothing, which is how the untraced run pays no cost.
type tracer struct {
	mu    sync.Mutex
	spans []spanRec
}

type spanRec struct {
	name       string
	layer      string
	id, parent int
	job        int // shared by every span of one job; 0 outside jobs
	lane       int // client or worker index, one Perfetto track each
	start, end time.Duration
}

// span is a handle on an open span; the zero value is a no-op.
type span struct {
	t  *tracer
	id int
}

// begin opens a span caused by parent (zero span: none).
func (t *tracer) begin(layer, name string, parent span, job, lane int) span {
	if t == nil {
		return span{}
	}
	now := time.Since(procStart)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{
		name: name, layer: layer, id: id, parent: parent.id,
		job: job, lane: lane, start: now, end: -1,
	})
	return span{t, id}
}

func (s span) end() {
	if s.t == nil {
		return
	}
	now := time.Since(procStart)
	s.t.mu.Lock()
	s.t.spans[s.id-1].end = now
	s.t.mu.Unlock()
}

// writeChrome writes the spans in Chrome trace-event format (complete
// "X" events), loadable in Perfetto or chrome://tracing. Parent and job
// ride in args: Perfetto nests by time within a track, args carry the
// causal link across tracks.
func (t *tracer) writeChrome(path, process string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	events := []event{{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": process}}}
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		events = append(events, event{
			Name: s.name, Cat: s.layer, Ph: "X", PID: 1, TID: s.lane,
			TS:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "job": s.job},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
