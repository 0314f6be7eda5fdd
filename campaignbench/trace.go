package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"github.com/fastfit/fastfit/internal/core"
)

// span is one timed interval of the traced run. Parent is the ID of the
// span that caused it (0 for a root).
type span struct {
	ID, Parent int
	Name, Cat  string
	Start, End time.Time
	Lane       int
	Args       map[string]any
}

// counter is a named set of counts recorded at a layer boundary.
type counter struct {
	Name string
	At   time.Time
	Args map[string]float64
}

// recorder keeps the traced run's spans and counters in memory until the
// run ends. A nil *recorder records nothing, which is how the untraced
// end-to-end runs stay free of tracing cost.
type recorder struct {
	mu       sync.Mutex
	epoch    time.Time
	spans    []*span
	counters []counter
	lanes    [][]int // open span IDs per lane, innermost last
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under parent and returns its ID. The span goes on the
// lane whose innermost open span is its parent, or on the first empty lane,
// so spans on one lane always nest (which is what trace viewers require).
func (r *recorder) begin(name, cat string, parent int, args map[string]any) int {
	if r == nil {
		return 0
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &span{ID: len(r.spans) + 1, Parent: parent, Name: name, Cat: cat, Start: now, Args: args}
	s.Lane = -1
	for i, stack := range r.lanes {
		if parent != 0 && len(stack) > 0 && stack[len(stack)-1] == parent {
			s.Lane = i
			break
		}
	}
	if s.Lane < 0 {
		for i, stack := range r.lanes {
			if len(stack) == 0 {
				s.Lane = i
				break
			}
		}
	}
	if s.Lane < 0 {
		r.lanes = append(r.lanes, nil)
		s.Lane = len(r.lanes) - 1
	}
	r.lanes[s.Lane] = append(r.lanes[s.Lane], s.ID)
	r.spans = append(r.spans, s)
	return s.ID
}

// end closes span id, merging args into its arguments.
func (r *recorder) end(id int, args map[string]any) {
	if r == nil || id == 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans[id-1]
	s.End = now
	if len(args) > 0 && s.Args == nil {
		s.Args = map[string]any{}
	}
	for k, v := range args {
		s.Args[k] = v
	}
	stack := r.lanes[s.Lane]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == id {
			r.lanes[s.Lane] = append(stack[:i], stack[i+1:]...)
			break
		}
	}
}

// add records an already-finished span whose times were taken elsewhere
// (for example inside a rank goroutine).
func (r *recorder) add(name, cat string, parent int, start, end time.Time, args map[string]any) {
	if r == nil {
		return
	}
	id := r.begin(name, cat, parent, args)
	r.mu.Lock()
	r.spans[id-1].Start = start
	r.mu.Unlock()
	r.end(id, nil)
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// count records a counter sample.
func (r *recorder) count(name string, args map[string]float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters = append(r.counters, counter{Name: name, At: time.Now(), Args: args})
	r.mu.Unlock()
}

// do runs fn inside span name, with the CPU-profile label layer=name set
// on the calling goroutine and inherited by every goroutine fn starts
// (simulated ranks included). It returns the span's ID.
func (r *recorder) do(ctx context.Context, name, cat string, parent int, args map[string]any, fn func(ctx context.Context, id int)) int {
	if r == nil {
		fn(ctx, 0)
		return 0
	}
	id := r.begin(name, cat, parent, args)
	pprof.Do(ctx, pprof.Labels("layer", name), func(ctx context.Context) { fn(ctx, id) })
	r.end(id, nil)
	return id
}

// chromeEvent is one record of the Chrome trace-event format, which
// Perfetto and chrome://tracing open offline.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func (r *recorder) micros(t time.Time) float64 { return float64(t.Sub(r.epoch).Nanoseconds()) / 1e3 }

// writeChrome writes every span (as a complete "X" event carrying its ID
// and its parent's) and every counter (as a "C" event) to path.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	var out chromeTrace
	out.DisplayTimeUnit = "ms"
	for _, s := range r.spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		for k, v := range s.Args {
			args[k] = v
		}
		end := s.End
		if end.IsZero() {
			end = s.Start
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X", Ts: r.micros(s.Start),
			Dur: r.micros(end) - r.micros(s.Start), Pid: 1, Tid: s.Lane + 1, Args: args,
		})
	}
	for _, c := range r.counters {
		args := make(map[string]any, len(c.Args))
		for k, v := range c.Args {
			args[k] = v
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{Name: c.Name, Ph: "C", Ts: r.micros(c.At), Pid: 1, Args: args})
	}
	r.mu.Unlock()
	sort.SliceStable(out.TraceEvents, func(i, j int) bool { return out.TraceEvents[i].Ts < out.TraceEvents[j].Ts })

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(out); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// stamper is the Observer the benchmark attaches to a campaign. It always
// notes the first PointStarted (the end of set-up) and the harness
// failures; with a recorder it also turns the typed event stream into
// phase and point spans under the campaign span, plus counters.
type stamper struct {
	rec    *recorder
	parent int    // span the phases nest under
	leg    string // application of this campaign leg

	firstPoint  time.Time
	phaseSpan   int
	points      map[int]int // campaign index -> open point span
	retries     int
	fork        core.SnapshotStats
	settled     int
	refined     int
	journalRecs int
	phase1      map[string]int // trials per completed point (by pointKey), before refinement
}

func newStamper(rec *recorder, parent int, leg string) *stamper {
	return &stamper{rec: rec, parent: parent, leg: leg, points: map[int]int{}, phase1: map[string]int{}}
}

// OnEvent implements core.Observer. The engine delivers events serially.
func (s *stamper) OnEvent(ev core.Event) {
	switch ev := ev.(type) {
	case core.PhaseChanged:
		s.rec.end(s.phaseSpan, nil)
		s.phaseSpan = s.rec.begin(ev.Phase.String(), "phase", s.parent, map[string]any{"app": s.leg, "points": ev.Points})
	case core.PointStarted:
		if s.firstPoint.IsZero() {
			s.firstPoint = time.Now()
		}
		s.points[ev.Index] = s.rec.begin("point", "point", s.phaseSpan, map[string]any{"app": s.leg, "index": ev.Index})
	case core.PointCompleted:
		if ev.FromCheckpoint {
			return
		}
		s.phase1[pointKey(ev.Result.Point)] = len(ev.Result.Trials)
		s.rec.end(s.points[ev.Index], map[string]any{"trials": len(ev.Result.Trials)})
		delete(s.points, ev.Index)
	case core.PointRetried:
		s.retries++
	case core.PointQuarantined:
		if !ev.FromCheckpoint {
			s.rec.end(s.points[ev.Point.Index], map[string]any{"quarantined": true})
			delete(s.points, ev.Point.Index)
		}
	case core.PointSettled:
		if !ev.FromCheckpoint {
			s.settled++
		}
	case core.PointRefined:
		s.refined++
	case core.CheckpointAppended:
		s.journalRecs = ev.Records
	case core.SnapshotStats:
		s.fork = ev
	case core.CampaignFinished:
		s.rec.end(s.phaseSpan, nil)
		s.phaseSpan = 0
	}
}
