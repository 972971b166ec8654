package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// spanLog keeps the benchmark's own spans in memory until the run ends,
// then writes them as Chrome trace_event JSON (loadable in Perfetto). A nil
// *spanLog records nothing, so untraced runs pay one nil check per span.
type spanLog struct {
	t0 time.Time

	mu    sync.Mutex
	next  int
	spans []span
}

// span is one timed interval on one track; Parent is 0 for a root span.
type span struct {
	ID, Parent int
	Track      int
	Name       string
	Start, End time.Time
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// id reserves a span id, so children can name a parent recorded later.
func (l *spanLog) id() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

// add records a finished span under a reserved id.
func (l *spanLog) add(id, parent, track int, name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Track: track, Name: name, Start: start, End: end})
	l.mu.Unlock()
}

// leaf records a finished span that has no children.
func (l *spanLog) leaf(parent, track int, name string, start, end time.Time) {
	l.add(l.id(), parent, track, name, start, end)
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write exports the spans as a trace_event document whose metadata carries
// the machine fingerprint.
func (l *spanLog) write(path string, meta any) error {
	l.mu.Lock()
	events := make([]traceEvent, 0, len(l.spans))
	for _, s := range l.spans {
		events = append(events, traceEvent{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Track,
			TS:   float64(s.Start.Sub(l.t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	l.mu.Unlock()
	raw, err := json.Marshal(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		Metadata        any          `json:"metadata"`
	}{events, "ms", meta})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, raw, 0o644)
}
