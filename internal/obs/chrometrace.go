package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"cawa/internal/gpu"
	"cawa/internal/stats"
)

// TraceEvent is one event of the Chrome Trace Event Format ("JSON
// Array Format"); Perfetto and chrome://tracing load the document
// directly. Timestamps are microseconds by convention — we map one
// simulated cycle to one microsecond.
type TraceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ChromeTrace is a complete trace document.
type ChromeTrace struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// gpuPID is the synthetic process id carrying device-wide counter
// tracks and kernel-launch spans (per-SM rows use the SM id).
const gpuPID = 1000

// TraceInput collects everything the Chrome trace builder renders.
// Any field may be empty; the corresponding tracks are simply absent.
type TraceInput struct {
	// Warps are the finished warp records (dispatch→finish spans).
	Warps []stats.WarpRecord
	// Events is the merged per-warp issue stream; stall-segment slices
	// are derived from each event's Stall prefix.
	Events []Event
	// Series are sampled metric series rendered as counter tracks.
	Series []*Series
	// Spans are kernel-launch windows (top-level spans on the GPU row).
	Spans []gpu.LaunchSpan
}

// BuildChromeTrace renders warp spans, stall slices, counter tracks
// and kernel spans into one trace document. Each SM becomes a trace
// process whose threads are warps (thread id = global warp id); a
// synthetic GPU process carries kernel spans and device-wide counters.
func BuildChromeTrace(in TraceInput) *ChromeTrace {
	t := &ChromeTrace{DisplayTimeUnit: "ms"}

	// Process metadata rows.
	seenSM := map[int]bool{}
	addSM := func(id int) {
		if seenSM[id] {
			return
		}
		seenSM[id] = true
		t.TraceEvents = append(t.TraceEvents, TraceEvent{
			Name: "process_name", Phase: "M", PID: id,
			Args: map[string]any{"name": fmt.Sprintf("SM %d", id)},
		})
	}
	t.TraceEvents = append(t.TraceEvents, TraceEvent{
		Name: "process_name", Phase: "M", PID: gpuPID,
		Args: map[string]any{"name": "GPU"},
	})

	for _, s := range in.Spans {
		dur := s.End - s.Start
		if dur < 1 {
			dur = 1
		}
		t.TraceEvents = append(t.TraceEvents, TraceEvent{
			Name: s.Kernel, Phase: "X", Cat: "kernel",
			TS: s.Start, Dur: dur, PID: gpuPID, TID: 0,
		})
	}

	// Warp spans, plus a gid → SM map for the stall slices.
	warpSM := make(map[int]int, len(in.Warps))
	for i := range in.Warps {
		w := &in.Warps[i]
		addSM(w.SM)
		warpSM[w.GID] = w.SM
		dur := w.ExecTime()
		if dur < 1 {
			dur = 1
		}
		t.TraceEvents = append(t.TraceEvents,
			TraceEvent{
				Name: "thread_name", Phase: "M", PID: w.SM, TID: w.GID,
				Args: map[string]any{"name": fmt.Sprintf("warp %d (block %d)", w.GID, w.Block)},
			},
			TraceEvent{
				Name: fmt.Sprintf("warp %d", w.GID), Phase: "X", Cat: "warp",
				TS: w.DispatchCycle, Dur: dur, PID: w.SM, TID: w.GID,
				Args: map[string]any{
					"block":         w.Block,
					"instructions":  w.Instructions,
					"issue_cycles":  w.IssueCycles,
					"sched_stall":   w.SchedStall,
					"mem_stall":     w.MemStall,
					"alu_stall":     w.ALUStall,
					"barrier_stall": w.BarrierStall,
					"empty_stall":   w.EmptyStall,
				},
			})
	}

	// Stall slices: each issue event closes a stall window of Stall
	// cycles ending at the issue; the args name the instruction the
	// warp was waiting to issue.
	for _, e := range in.Events {
		if e.Stall <= 0 {
			continue
		}
		smID, ok := warpSM[e.GID]
		if !ok {
			continue
		}
		t.TraceEvents = append(t.TraceEvents, TraceEvent{
			Name: "stall", Phase: "X", Cat: "stall",
			TS: e.Cycle - e.Stall, Dur: e.Stall, PID: smID, TID: e.GID,
			Args: map[string]any{"next_pc": e.PC, "next_op": e.Op.String(), "lanes": e.Lanes},
		})
	}

	// Counter tracks.
	for _, s := range in.Series {
		pid := gpuPID
		if s.SM != GPUScope {
			pid = s.SM
			addSM(s.SM)
		}
		for _, p := range s.Samples {
			t.TraceEvents = append(t.TraceEvents, TraceEvent{
				Name: s.Name, Phase: "C", TS: p.Cycle, PID: pid,
				Args: map[string]any{"value": p.Value},
			})
		}
	}

	// Stable order: by timestamp, metadata first. Perfetto tolerates
	// any order; sorted output diffs cleanly across runs.
	sort.SliceStable(t.TraceEvents, func(i, j int) bool {
		a, b := &t.TraceEvents[i], &t.TraceEvents[j]
		if (a.Phase == "M") != (b.Phase == "M") {
			return a.Phase == "M"
		}
		return a.TS < b.TS
	})
	return t
}

// Write emits the document as JSON.
func (t *ChromeTrace) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t)
}

// WriteFile writes the document to path.
func (t *ChromeTrace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
