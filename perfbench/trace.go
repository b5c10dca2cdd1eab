package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/history"
	"harmony/internal/search"
	"harmony/internal/server"
)

// maxSpans bounds the spans one traced run keeps in memory. Spans past it
// are still timed, so the tracing overhead stays the same, but dropped.
const maxSpans = 100_000

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the run began; Parent 0 means a root span.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	Session string `json:"session,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// pendingReport is a client report the server has not committed yet: the
// Server.Tracer hook stamps the commit time when the matching EventEval
// arrives, splitting the exchange into inbound and outbound parts.
type pendingReport struct {
	key    string
	commit atomic.Int64
}

// recorder keeps one traced run's spans and tracer counts in memory; they
// are written out when the run ends.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int
	// bySession maps a characteristics fingerprint to the benchmark's
	// session ID, so store calls carrying characteristics are attributed
	// to the session that registered them.
	bySession map[string]string

	pending sync.Map // report key → *pendingReport

	// Tracer and store counts.
	evals, simplexOps, converges, reltol, matches, matchOK atomic.Int64

	// probes are the configurations the kernels committed and truths the
	// client measurements, both in kernel coordinates: the gate replay's
	// inputs.
	probeMu sync.Mutex
	probes  []search.Config
	truths  []truth
}

type truth struct {
	cfg  search.Config
	perf float64
}

// maxReplay bounds the probes and truths kept for the gate replay.
const maxReplay = 4096

func (r *recorder) noteTruth(cfg search.Config, perf float64) {
	r.probeMu.Lock()
	if len(r.truths) < maxReplay {
		r.truths = append(r.truths, truth{cfg.Clone(), perf})
	}
	r.probeMu.Unlock()
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), bySession: map[string]string{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin reserves a span ID and returns it with the start time.
func (r *recorder) begin() (int64, int64) { return r.nextID.Add(1), r.now() }

func (r *recorder) add(s span) {
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// finish records a span begun with begin.
func (r *recorder) finish(id, parent int64, name, session string, start int64) {
	r.add(span{ID: id, Parent: parent, Name: name, Session: session, Start: start, End: r.now()})
}

func charsKey(chars []float64) string {
	b := make([]byte, 0, 8*len(chars))
	for _, c := range chars {
		b = strconv.AppendUint(b, math.Float64bits(c), 36)
		b = append(b, ',')
	}
	return string(b)
}

func (r *recorder) noteChars(chars []float64, session string) {
	if len(chars) == 0 {
		return
	}
	r.mu.Lock()
	r.bySession[charsKey(chars)] = session
	r.mu.Unlock()
}

func (r *recorder) sessionOf(chars []float64) string {
	if len(chars) == 0 {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bySession[charsKey(chars)]
}

func reportKey(cfg search.Config, perf float64) string {
	return cfg.Key() + "|" + strconv.FormatUint(math.Float64bits(perf), 36)
}

// expect registers a report about to be sent.
func (r *recorder) expect(cfg search.Config, perf float64) *pendingReport {
	p := &pendingReport{key: reportKey(cfg, perf)}
	r.pending.Store(p.key, p)
	return p
}

// Emit is the Server.Tracer hook: it counts kernel events and stamps the
// commit of every client report it recognises.
func (r *recorder) Emit(e search.Event) {
	switch e.Type {
	case search.EventEval:
		if e.Cached {
			return
		}
		r.evals.Add(1)
		if v, ok := r.pending.LoadAndDelete(reportKey(e.Config, e.Perf)); ok {
			v.(*pendingReport).commit.Store(r.now())
		}
		r.probeMu.Lock()
		if len(r.probes) < maxReplay {
			r.probes = append(r.probes, e.Config.Clone())
		}
		r.probeMu.Unlock()
	case search.EventSimplex:
		r.simplexOps.Add(1)
	case search.EventConverge:
		r.converges.Add(1)
		if e.Op == "reltol" {
			r.reltol.Add(1)
		}
	}
}

// tracedStore decorates the server's experience store with expdb.* spans.
type tracedStore struct {
	server.Store
	rec *recorder
}

func (t *tracedStore) Record(key string, chars []float64, dir search.Direction, tr search.Trace) bool {
	id, start := t.rec.begin()
	ok := t.Store.Record(key, chars, dir, tr)
	t.rec.finish(id, 0, "expdb.record", t.rec.sessionOf(chars), start)
	return ok
}

func (t *tracedStore) Match(key string, chars []float64) (*history.Experience, bool) {
	id, start := t.rec.begin()
	exp, ok := t.Store.Match(key, chars)
	t.rec.finish(id, 0, "expdb.match", t.rec.sessionOf(chars), start)
	t.rec.matches.Add(1)
	if ok {
		t.rec.matchOK.Add(1)
	}
	return exp, ok
}

func (t *tracedStore) WarmFill(key string, fn func(cfg search.Config, perf float64)) {
	id, start := t.rec.begin()
	t.Store.WarmFill(key, fn)
	t.rec.finish(id, 0, "expdb.warmfill", "", start)
}

// resolve gives every server-side span without a parent the client call
// of its own session whose interval contains it, or, for a span of no
// known session, the latest-starting call containing it. It runs once,
// after the run.
func (r *recorder) resolve() {
	var calls []span
	for _, s := range r.spans {
		if s.Name == "client.register" || s.Name == "client.exchange" {
			calls = append(calls, s)
		}
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].Start < calls[j].Start })
	for i := range r.spans {
		s := &r.spans[i]
		if s.Parent != 0 || len(s.Name) < 6 || s.Name[:6] != "expdb." {
			continue
		}
		// Calls starting after s cannot contain it, and only the calls in
		// flight when s began can: at most a few hundred in any workload.
		n := sort.Search(len(calls), func(k int) bool { return calls[k].Start > s.Start })
		var pick *span
		for k := n - 1; k >= 0 && k >= n-512; k-- {
			c := &calls[k]
			if c.End < s.End {
				continue
			}
			if c.Session == s.Session {
				pick = c
				break
			}
			if pick == nil && s.Session == "" {
				pick = c
			}
		}
		if pick != nil {
			s.Parent = pick.ID
			if s.Session == "" {
				s.Session = pick.Session
			}
		}
	}
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover, in nanoseconds, keyed by span ID.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, curS, curE := int64(0), int64(-1), int64(-1)
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > curE {
				covered += curE - curS
				curS, curE = lo, hi
			} else if hi > curE {
				curE = hi
			}
		}
		covered += curE - curS
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerSummary is one span name's totals in the per-layer summary file.
type layerSummary struct {
	Count    int     `json:"count"`
	TotalMS  float64 `json:"total_ms"`
	SelfMS   float64 `json:"self_ms"`
	P50US    float64 `json:"p50_us"`
	SelfP50  float64 `json:"self_p50_us"`
	SelfFrac float64 `json:"self_frac"`
}

func summarize(spans []span, self map[int64]int64) map[string]layerSummary {
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e3)
		selfs[s.Name] = append(selfs[s.Name], float64(self[s.ID])/1e3)
	}
	out := map[string]layerSummary{}
	for name, d := range durs {
		total, selfTotal := 0.0, 0.0
		for i := range d {
			total += d[i]
			selfTotal += selfs[name][i]
		}
		out[name] = layerSummary{
			Count:    len(d),
			TotalMS:  total / 1e3,
			SelfMS:   selfTotal / 1e3,
			P50US:    median(d),
			SelfP50:  median(selfs[name]),
			SelfFrac: ratio(selfTotal, total),
		}
	}
	return out
}

// export writes the spans as JSONL and the per-layer summary as JSON into
// dir, returning the two paths.
func (r *recorder) export(dir, stem string, layers map[string]layerSummary, metrics map[string]float64) (string, string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", fmt.Errorf("trace export: %w", err)
	}
	spanPath := filepath.Join(dir, stem+".spans.jsonl")
	f, err := os.Create(spanPath)
	if err != nil {
		return "", "", fmt.Errorf("trace export: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", "", fmt.Errorf("trace export: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", "", fmt.Errorf("trace export: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", "", fmt.Errorf("trace export: %w", err)
	}
	sumPath := filepath.Join(dir, stem+".layers.json")
	b, err := json.MarshalIndent(map[string]interface{}{
		"spans_kept":    len(r.spans),
		"spans_dropped": r.dropped,
		"layers":        layers,
		"per_layer":     metrics,
	}, "", "  ")
	if err != nil {
		return "", "", fmt.Errorf("trace export: %w", err)
	}
	if err := os.WriteFile(sumPath, append(b, '\n'), 0o644); err != nil {
		return "", "", fmt.Errorf("trace export: %w", err)
	}
	return spanPath, sumPath, nil
}
