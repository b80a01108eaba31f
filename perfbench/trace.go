package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one recorded interval around a call into a layer.
type span struct {
	name       string
	op         string // the op (request, CLI run or pipeline pass) it belongs to
	parent     int    // index of the enclosing span, -1 for an op's root
	lane       int    // client goroutine or pipeline, for the trace viewer
	start, end time.Duration
}

// recorder keeps a traced run's spans in memory until the run ends. A
// nil recorder records nothing, so untraced runs share the same code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id, or -1 on a nil recorder.
func (r *recorder) start(name, op string, parent, lane int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, op: op, parent: parent, lane: lane, start: now, end: -1})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// snapshot copies the spans recorded so far; a span's index is its id.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microseconds), which Perfetto and chrome://tracing load.
func (r *recorder) writeChrome(w io.Writer) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	spans := r.snapshot()
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		args := map[string]string{"op": s.op, "id": fmt.Sprint(i)}
		if s.parent >= 0 {
			args["parent"] = fmt.Sprint(s.parent)
		}
		events = append(events, event{s.name, "X", us(s.start), us(s.end - s.start), 1, s.lane, args})
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		return err
	}
	return bw.Flush()
}

// selfTimes returns each span's self time: its duration minus the part
// its child spans cover. Children of one parent never overlap: an op
// makes its layer calls one after another.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.end >= 0 {
			self[i] = s.end - s.start
		}
	}
	for _, s := range spans {
		if s.parent >= 0 && s.end >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// coverage is the share of op wall time spent inside named layer
// spans: the summed duration of the ops' direct children over the
// summed duration of the ops ("op" root spans).
func coverage(spans []span) float64 {
	var ops, inside time.Duration
	for _, s := range spans {
		if s.end < 0 {
			continue
		}
		if s.name == "op" {
			ops += s.end - s.start
		} else if s.parent >= 0 && spans[s.parent].name == "op" {
			inside += s.end - s.start
		}
	}
	if ops == 0 {
		return 0
	}
	return float64(inside) / float64(ops)
}

// selfTimeTable renders per-layer self time, largest first.
func (r *recorder) selfTimeTable() string {
	spans := r.snapshot()
	self := selfTimes(spans)
	type row struct {
		name  string
		n     int
		total time.Duration
		self  time.Duration
	}
	rows := map[string]*row{}
	var all time.Duration
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		rw := rows[s.name]
		if rw == nil {
			rw = &row{name: s.name}
			rows[s.name] = rw
		}
		rw.n++
		rw.total += s.end - s.start
		rw.self += self[i]
		all += self[i]
	}
	list := make([]*row, 0, len(rows))
	for _, rw := range rows {
		list = append(list, rw)
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].self != list[j].self {
			return list[i].self > list[j].self
		}
		return list[i].name < list[j].name
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %7s %12s %12s %7s\n", "layer span", "count", "total ms", "self ms", "self %")
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, rw := range list {
		share := 0.0
		if all > 0 {
			share = 100 * float64(rw.self) / float64(all)
		}
		fmt.Fprintf(&b, "%-34s %7d %12.3f %12.3f %6.2f%%\n", rw.name, rw.n, ms(rw.total), ms(rw.self), share)
	}
	return b.String()
}
