package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"time"
)

// spanLog records wall-clock spans around the benchmark's own calls into the
// simulator (setup, New*, SubmitEvent, Run, Stats, Check*, Timeline, the
// trace write). A nil *spanLog records nothing, so plain reps pay one nil
// check per call site.
type spanLog struct {
	base  time.Time
	spans []span
}

// span is one recorded call; start and end are ns since the log's base.
type span struct {
	name       string
	start, end int64
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) now() int64 {
	if l == nil {
		return 0
	}
	return int64(time.Since(l.base))
}

// add records a span named name from start (a value of now) to now.
func (l *spanLog) add(name string, start int64) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{name: name, start: start, end: l.now()})
}

// durations returns the durations, in ns, of every span named name.
func (l *spanLog) durations(name string) []float64 {
	var ds []float64
	for _, s := range l.spans {
		if s.name == name {
			ds = append(ds, float64(s.end-s.start))
		}
	}
	return ds
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover, indexed like spans. Spans nest (a SubmitEvent inside Run), so
// a stack ordered by start finds each span's parent.
func selfTimes(spans []span) []int64 {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if c := cmp.Compare(spans[a].start, spans[b].start); c != 0 {
			return c
		}
		return cmp.Compare(spans[b].end, spans[a].end)
	})
	self := make([]int64, len(spans))
	var stack []int
	for _, i := range order {
		s := spans[i]
		self[i] = s.end - s.start
		for len(stack) > 0 && spans[stack[len(stack)-1]].end <= s.start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			self[stack[len(stack)-1]] -= s.end - s.start
		}
		stack = append(stack, i)
	}
	return self
}

// maxSubmitEvents caps the SubmitEvent spans written to the trace file; the
// latency percentiles use every sample.
const maxSubmitEvents = 20_000

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string             `json:"name"`
	Ph   string             `json:"ph"`
	Ts   float64            `json:"ts"`
	Dur  float64            `json:"dur"`
	Pid  int                `json:"pid"`
	Tid  int                `json:"tid"`
	Args map[string]float64 `json:"args"`
}

// writeChromeTrace writes the spans as a Chrome trace (times in µs) with
// each span's self time in its args.
func writeChromeTrace(path string, spans []span) error {
	self := selfTimes(spans)
	events := make([]chromeEvent, 0, len(spans))
	submits := 0
	for i, s := range spans {
		if s.name == "submit" {
			if submits++; submits > maxSubmitEvents {
				continue
			}
		}
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]float64{"self_us": float64(self[i]) / 1e3},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
