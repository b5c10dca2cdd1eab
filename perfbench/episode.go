package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/drift"
	"harmony/internal/evalcache"
	"harmony/internal/obs"
	"harmony/internal/search"
	"harmony/internal/server"
)

// episode is one server lifetime: build the server as harmonyd would,
// run a fixed, seeded batch of client sessions against it over loopback
// TCP, and shut it down. Every end-to-end sample comes from an episode.
type episode struct {
	index int
	rec   *recorder // nil when the episode is untraced
	// ex and reg hold the episode's exchange latencies (µs, report sent →
	// next config received) and session-start latencies (µs, dial +
	// negotiate + register), under mu. Their fixed-size histograms are
	// allocated before the episode's baseline, so the samples neither
	// count in the live heap nor move the collector's pacing.
	ex, reg *latHist

	rt     *obs.Runtime
	srv    *server.Server
	cacheM *evalcache.Metrics
	addr   string
	// cleanup runs after the server has shut down, in order.
	cleanup []func() error

	start    time.Time
	firstReg atomic.Int64 // ns after start of the first successful register
	// heapBase is the live heap before the episode's server existed.
	heapBase uint64
	// dataDir is the episode's staged experience database (prior-runs).
	dataDir string

	mu       sync.Mutex
	sessions []*sessionResult
	ends     []server.SessionEnd
	connErrs int
	// Client corked-writer stats of the mux connections (fleet).
	muxFrames, muxFlushes uint64

	// Filled when the episode ends.
	// endErr is the exactly-once session accounting's verdict.
	endErr      error
	setup       float64 // s
	rate        float64 // sessions/s
	heapMiB     float64
	mallocs     uint64
	allocBytes  uint64
	gcs         uint32
	exchanges   int
	goroutines  float64 // peak minus idle baseline
	retained    int
	srvCounters map[string]float64
	expOpen     time.Duration
	expSizes    [2]int // experiences, records after open
}

// collect runs two full collections: the second frees what sync.Pool
// victim caches kept alive through the first.
func collect() {
	runtime.GC()
	runtime.GC()
}

// newServer builds a server exactly as harmonyd does when started with
// its default flags plus -log-level error; workloads then apply the
// flags that set them apart.
func (ep *episode) newServer() error {
	rt, err := (&obs.CLIConfig{LogLevel: "error", LogFormat: "text"}).Start(nil)
	if err != nil {
		return err
	}
	s := server.NewServer()
	s.SearchKernel = server.KernelSimplex
	s.MaxEvalsCap = 10000
	s.WriteTimeout = 10 * time.Second
	s.FailureBudget = 3
	s.ExperienceCompactAbove = server.DefaultExperienceCompactAbove
	s.ExperienceMergeDist = server.DefaultExperienceMergeDist
	s.ExperienceKeepRecords = server.DefaultExperienceKeepRecords
	s.EvalCache = server.CacheOff
	s.DriftOptions = drift.Options{Threshold: drift.DefaultThreshold, Window: drift.DefaultWindow}
	s.GateOptions = evalcache.GateOptions{
		MaxVertexDist:   evalcache.DefaultGateMaxDist,
		MaxRelResidual:  evalcache.DefaultGateMaxRelResidual,
		TruthCheckEvery: 16,
	}
	s.Logger = rt.Logger
	s.Metrics = server.NewMetrics(rt.Registry)
	s.Tracer = rt.Tracer()
	s.OnSessionEnd = func(end server.SessionEnd) {
		ep.mu.Lock()
		ep.ends = append(ep.ends, end)
		ep.mu.Unlock()
	}
	ep.rt, ep.srv = rt, s
	return nil
}

// evalCache applies -eval-cache <scope> (and -estimate-gate).
func (ep *episode) evalCache(scope server.CacheScope, gate bool) {
	ep.srv.EvalCache = scope
	ep.srv.EstimateGate = gate
	ep.cacheM = evalcache.NewMetrics(ep.rt.Registry)
	ep.srv.CacheMetrics = ep.cacheM
}

// listen installs the trace hooks on traced episodes and binds loopback.
func (ep *episode) listen() error {
	if ep.rec != nil {
		ep.srv.Tracer = ep.rec
		ep.srv.Experience = &tracedStore{Store: ep.srv.ExperienceStore(), rec: ep.rec}
	}
	a, err := ep.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	ep.addr = a.String()
	return nil
}

// shutdown drains the server and runs the cleanups.
func (ep *episode) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ep.srv.Shutdown(ctx)
	for _, f := range ep.cleanup {
		if cerr := f(); err == nil {
			err = cerr
		}
	}
	ep.rt.Close()
	return err
}

// sessionSpec is one client session's seeded inputs.
type sessionSpec struct {
	id      string
	rsl     string
	opts    server.RegisterOptions
	space   *search.Space               // the registered space, for the in-space check
	measure func(search.Config) float64 // the application's measurement
	ref     float64                     // closed-form optimum or per-mix reference
	price   float64                     // simulated seconds one measurement costs
	// measureSpan names the span around one measurement.
	measureSpan string
	// label names the session's workload (its TPC-W mix), if any.
	label string
	// ready, when set, is called once the session has registered, or has
	// failed to: a barrier that lets concurrent sessions start measuring
	// together.
	ready func()
}

// sessionResult is one client session's outcome.
type sessionResult struct {
	id       string
	label    string
	err      error
	kind     string // dial | session | protocol, when err != nil
	best     *server.Best
	inSpace  bool // the best lies inside the registered space
	warm     bool
	measures int
	maxSeen  float64 // the best value the client measured
	bad      int
	hit98    int // 1-based index of the first measurement ≥ 98% of ref, 0 if none
	ref      float64
	price    float64
	bestTrue float64
}

func (r *sessionResult) measS() float64 { return float64(r.measures) * r.price }

// measTo98 charges measurements up to the first one reaching 98% of the
// reference; a session that never measures one is charged in full.
func (r *sessionResult) measTo98() float64 {
	if r.hit98 > 0 {
		return float64(r.hit98) * r.price
	}
	return r.measS()
}

// meter wraps the application's measurement with the per-session quality
// accounting. It allocates nothing.
type meter struct {
	spec *sessionSpec
	res  *sessionResult
	mu   sync.Mutex
}

func (m *meter) measure(cfg search.Config) float64 {
	v := m.spec.measure(cfg)
	m.mu.Lock()
	r := m.res
	r.measures++
	if r.measures == 1 || v > r.maxSeen {
		r.maxSeen = v
	}
	if v < 0.7*m.spec.ref {
		r.bad++
	}
	if r.hit98 == 0 && v >= 0.98*m.spec.ref {
		r.hit98 = r.measures
	}
	m.mu.Unlock()
	return v
}

func classify(err error) string {
	if errors.Is(err, server.ErrProtocol) {
		return "protocol"
	}
	return "session"
}

// runSession drives one client session end to end: connect, register,
// tune (lockstep, or pipelined when window > 1) and re-measure the best.
// dials says whether connect opens a connection of its own (false for a
// session on a shared mux connection).
func (ep *episode) runSession(spec *sessionSpec, connect func() (*server.Client, error), dials bool, window int) *sessionResult {
	res := &sessionResult{id: spec.id, label: spec.label, ref: spec.ref, price: spec.price}
	defer func() {
		ep.mu.Lock()
		ep.sessions = append(ep.sessions, res)
		ep.mu.Unlock()
	}()
	if spec.ready != nil {
		var once sync.Once
		ready := spec.ready
		spec.ready = func() { once.Do(ready) }
		defer spec.ready()
	}
	rec := ep.rec
	var sid, sstart int64
	if rec != nil {
		sid, sstart = rec.begin()
		rec.noteChars(spec.opts.Characteristics, spec.id)
		defer func() { rec.finish(sid, 0, "session", spec.id, sstart) }()
	}

	t0 := time.Now()
	var did, dstart int64
	if rec != nil && dials {
		did, dstart = rec.begin()
	}
	c, err := connect()
	if rec != nil && dials {
		rec.finish(did, sid, "client.dial", spec.id, dstart)
	}
	if err != nil {
		res.err, res.kind = err, "dial"
		return res
	}
	defer c.Close()

	var rid, rstart int64
	if rec != nil {
		rid, rstart = rec.begin()
	}
	_, err = c.Register(spec.rsl, spec.opts)
	if rec != nil {
		rec.finish(rid, sid, "client.register", spec.id, rstart)
	}
	if err != nil {
		res.err, res.kind = err, classify(err)
		return res
	}
	regDone := time.Now()
	ep.firstReg.CompareAndSwap(0, int64(regDone.Sub(ep.start)))
	res.warm = c.WarmStarted()
	if spec.ready != nil {
		spec.ready()
	}

	m := &meter{spec: spec, res: res}
	var lats []float64
	if window > 1 {
		lats, err = ep.pipelined(c, m, sid, window)
	} else {
		lats, err = ep.lockstep(c, m, sid)
	}
	ep.mu.Lock()
	ep.reg.add(float64(regDone.Sub(t0)) / 1e3)
	for _, x := range lats {
		ep.ex.add(x)
	}
	ep.mu.Unlock()
	if err != nil {
		res.err, res.kind = err, classify(err)
		return res
	}
	best, ok := c.BestResult()
	if !ok {
		res.err, res.kind = fmt.Errorf("session %s: no best delivered", spec.id), "protocol"
		return res
	}
	res.best = best
	if res.inSpace = len(best.Values) > 0 && spec.space.Contains(best.Values); res.inSpace {
		// The client re-measures its reported best, outside the session.
		res.bestTrue = spec.measure(best.Values)
	}
	return res
}

// lockstep is the classic fetch / measure / report-and-fetch loop. Each
// exchange is timed from the report send to the next config received, so
// the client's measurement is excluded.
func (ep *episode) lockstep(c *server.Client, m *meter, sid int64) ([]float64, error) {
	rec, id := ep.rec, m.spec.id
	lats := make([]float64, 0, 128)
	cfg, done, err := c.Fetch()
	for err == nil && !done {
		var perf float64
		if rec == nil {
			perf = m.measure(cfg)
			t := time.Now()
			cfg, done, err = c.ReportAndFetch(perf)
			lats = append(lats, float64(time.Since(t))/1e3)
			continue
		}
		mid, mstart := rec.begin()
		perf = m.measure(cfg)
		rec.finish(mid, sid, m.spec.measureSpan, id, mstart)
		rec.noteTruth(cfg, perf)
		t := time.Now()
		xid, xstart := rec.begin()
		p := rec.expect(cfg, perf)
		cfg, done, err = c.ReportAndFetch(perf)
		end := rec.now()
		lats = append(lats, float64(time.Since(t))/1e3)
		rec.add(span{ID: xid, Parent: sid, Name: "client.exchange", Session: id, Start: xstart, End: end})
		if commit := p.commit.Load(); commit != 0 {
			rec.add(span{ID: rec.nextID.Add(1), Parent: xid, Name: "server.inbound", Session: id, Start: xstart, End: commit})
			rec.add(span{ID: rec.nextID.Add(1), Parent: xid, Name: "server.outbound", Session: id, Start: commit, End: end})
		} else {
			rec.pending.Delete(p.key)
		}
	}
	return lats, err
}

// pipelined runs a windowed session through Client.TuneParallel. Replies
// overlap there, so an exchange is timed from a worker's measurement end
// (its report and fetch credit leave right after) to the next measurement
// start on any worker, paired first in, first out.
func (ep *episode) pipelined(c *server.Client, m *meter, sid int64, window int) ([]float64, error) {
	rec, id := ep.rec, m.spec.id
	var (
		mu   sync.Mutex
		ends []int64 // recorder-free monotonic stamps, ns since t0
		lats []float64
	)
	t0 := time.Now()
	measure := func(cfg search.Config) float64 {
		now := int64(time.Since(t0))
		mu.Lock()
		if len(ends) > 0 {
			gap := now - ends[0]
			lats = append(lats, float64(gap)/1e3)
			if rec != nil {
				start := rec.now() - gap
				rec.add(span{ID: rec.nextID.Add(1), Parent: sid, Name: "client.exchange", Session: id, Start: start, End: start + gap})
			}
			ends = ends[1:]
		}
		mu.Unlock()
		var perf float64
		if rec != nil {
			mid, mstart := rec.begin()
			perf = m.measure(cfg)
			rec.finish(mid, sid, m.spec.measureSpan, id, mstart)
			rec.noteTruth(cfg, perf)
		} else {
			perf = m.measure(cfg)
		}
		mu.Lock()
		ends = append(ends, int64(time.Since(t0)))
		mu.Unlock()
		return perf
	}
	_, err := c.TuneParallel(measure, window)
	mu.Lock()
	defer mu.Unlock()
	return lats, err
}

// finish closes the episode's books: memory and allocation deltas, the
// forced-GC live heap with the server still up, server-side counters and
// the exactly-once session accounting.
func (ep *episode) finish(before *runtime.MemStats, driveStart, driveEnd time.Time) error {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	ep.mallocs = after.Mallocs - before.Mallocs
	ep.allocBytes = after.TotalAlloc - before.TotalAlloc
	ep.gcs = after.NumGC - before.NumGC
	collect()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	ep.heapMiB = (float64(live.HeapAlloc) - float64(ep.heapBase)) / (1 << 20)

	completed := 0
	for _, r := range ep.sessions {
		ep.exchanges += r.measures
		if r.err == nil {
			completed++
		}
	}
	ep.rate = float64(completed) / driveEnd.Sub(driveStart).Seconds()
	if fr := ep.firstReg.Load(); fr != 0 {
		ep.setup = float64(fr) / 1e9
	}
	ep.retained = len(ep.srv.SessionSnapshots())
	m := ep.srv.Metrics
	ep.srvCounters = map[string]float64{
		"credit_stalls":   float64(m.MuxCreditStalls.Value()),
		"evictions":       float64(m.MuxEvictions.Value()),
		"protocol_errors": float64(m.ProtocolErrors.Value()),
		"flush_frames":    m.MuxCorkedFlushFrames.Sum(),
		"flushes":         float64(m.MuxCorkedFlushFrames.Count()),
		"completed":       float64(m.SessionsCompleted.Value()),
	}
	if cm := ep.cacheM; cm != nil {
		ep.srvCounters["hits"] = float64(cm.Hits.Value())
		ep.srvCounters["misses"] = float64(cm.Misses.Value())
		ep.srvCounters["fills"] = float64(cm.Fills.Value())
		ep.srvCounters["coalesced"] = float64(cm.Coalesced.Value())
		ep.srvCounters["estimated"] = float64(cm.Estimated.Value())
		ep.srvCounters["gate_rejects"] = float64(cm.GateRejects.Value())
		ep.srvCounters["truth_checks"] = float64(cm.TruthChecks.Value())
		ep.srvCounters["abs_err_sum"] = cm.EstimateAbsError.Sum()
		ep.srvCounters["abs_err_n"] = float64(cm.EstimateAbsError.Count())
	}
	if err := ep.shutdown(); err != nil {
		return fmt.Errorf("episode %d: shutdown: %w", ep.index, err)
	}
	ep.endErr = ep.checkEnds()
	return nil
}

// checkEnds verifies that every session that reached the server ended
// there exactly once, and that the server completed every session the
// clients completed.
func (ep *episode) checkEnds() error {
	seen := map[string]bool{}
	for _, e := range ep.ends {
		if seen[e.ID] {
			return fmt.Errorf("episode %d: session %s ended twice", ep.index, e.ID)
		}
		seen[e.ID] = true
	}
	reached, completed, serverCompleted := 0, 0, 0
	for _, r := range ep.sessions {
		if r.kind != "dial" {
			reached++
		}
		if r.err == nil {
			completed++
		}
	}
	for _, e := range ep.ends {
		if e.Completed {
			serverCompleted++
		}
	}
	if len(ep.ends) != reached {
		return fmt.Errorf("episode %d: %d sessions reached the server but %d ended there", ep.index, reached, len(ep.ends))
	}
	if serverCompleted != completed {
		return fmt.Errorf("episode %d: clients completed %d sessions, the server %d", ep.index, completed, serverCompleted)
	}
	return nil
}
