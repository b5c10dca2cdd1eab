package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"harmony/internal/evalcache"
	"harmony/internal/search"
)

// endToEndUnits names every end-to-end metric with its unit.
var endToEndUnits = map[string]string{
	"setup_s":             "s",
	"sessions_per_s":      "1/s",
	"exchange_p50_us":     "us",
	"exchange_p90_us":     "us",
	"register_p50_us":     "us",
	"allocs_per_exchange": "count",
	"live_heap_mb":        "MiB",
	"session_ok_frac":     "ratio",
	"meas_s_per_session":  "sim_s",
	"meas_s_to_98":        "sim_s",
	"bad_iters":           "count/session",
	"best_true_wips":      "WIPS",
}

// perLayerUnits names every per-layer metric with its unit. A metric that
// does not apply to a workload (its layer is bypassed there) reads 0.
var perLayerUnits = map[string]string{
	"server.dial_us":                   "us",
	"server.register_self_us":          "us",
	"server.inbound_p50_us":            "us",
	"server.inbound_p90_us":            "us",
	"server.outbound_p50_us":           "us",
	"server.outbound_p90_us":           "us",
	"server.goroutines_per_session":    "count",
	"server.frames_per_flush":          "count",
	"client.frames_per_flush":          "count",
	"server.credit_stalls":             "count",
	"server.evictions":                 "count",
	"server.protocol_errors":           "count",
	"server.sessions_retained":         "count",
	"search.step_us":                   "us",
	"search.evals_per_session":         "count",
	"search.simplex_ops_per_eval":      "ratio",
	"search.converge_reltol_frac":      "ratio",
	"evalcache.hit_ratio":              "ratio",
	"evalcache.fills":                  "count",
	"evalcache.coalesced":              "count",
	"evalcache.saved_frac":             "ratio",
	"evalcache.gate_accept_ratio":      "ratio",
	"evalcache.gate_abs_err_mean":      "WIPS",
	"evalcache.truth_checks":           "count",
	"evalcache.gate_estimate_us":       "us",
	"expdb.open_ms":                    "ms",
	"expdb.experiences":                "count",
	"expdb.records":                    "count",
	"expdb.match_us":                   "us",
	"expdb.warmfill_us":                "us",
	"expdb.record_us":                  "us",
	"expdb.match_ok_ratio":             "ratio",
	"expdb.warm_start_frac":            "ratio",
	"webservice.measure_ms":            "ms",
	"webservice.measures":              "count/session",
	"obs.trace_overhead_frac":          "ratio",
	"runtime.alloc_bytes_per_exchange": "B",
	"runtime.gc_cycles":                "1/kexchange",
}

func withUnits(values map[string]float64, units map[string]string) (map[string]metric, error) {
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		v, ok := values[name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
		out[name] = metric{Value: v, Unit: unit}
	}
	if len(values) != len(units) {
		return nil, fmt.Errorf("computed %d metrics, %d are defined", len(values), len(units))
	}
	return out, nil
}

// timed are the episodes whose timings count: all of them in an untraced
// run, the untraced half of a traced one.
func (h *harness) timed(traced bool) []*episode {
	var out []*episode
	for _, ep := range h.episodes {
		if (ep.rec != nil) == traced {
			out = append(out, ep)
		}
	}
	return out
}

func each(eps []*episode, f func(*episode) float64) []float64 {
	out := make([]float64, len(eps))
	for i, ep := range eps {
		out[i] = f(ep)
	}
	return out
}

// quality holds the per-session quality means over the quality sessions.
type quality struct {
	n                              int
	measS, measTo98, bad, bestTrue float64
	evals, measures, warm          float64
	// reach98 is the share of sessions that measured ≥ 98% of the
	// reference at all.
	reach98 float64
}

func (h *harness) quality() quality {
	var q quality
	for _, s := range h.qualitySessions() {
		if s.err != nil || s.best == nil {
			continue
		}
		q.n++
		q.measS += s.measS()
		q.measTo98 += s.measTo98()
		q.bad += float64(s.bad)
		q.bestTrue += s.bestTrue
		q.evals += float64(s.best.Evals)
		q.measures += float64(s.measures)
		if s.warm {
			q.warm++
		}
		if s.hit98 > 0 {
			q.reach98++
		}
	}
	if q.n > 0 {
		n := float64(q.n)
		q.measS /= n
		q.measTo98 /= n
		q.bad /= n
		q.bestTrue /= n
		q.evals /= n
		q.measures /= n
		q.warm /= n
		q.reach98 /= n
	}
	return q
}

func (h *harness) endToEnd() map[string]metric {
	eps := h.timed(false)
	// Per-episode figures are reported as their median over the run's
	// episodes, latency percentiles as their median over blocks of
	// episodes (see blockQuantile).
	perEp := func(f func(ep *episode) float64) float64 { return median(each(eps, f)) }
	exchange := func(ep *episode) *latHist { return ep.ex }
	register := func(ep *episode) *latHist { return ep.reg }
	ex50, exBlocks := blockQuantile(eps, exchange, 0.5)
	ex90, _ := blockQuantile(eps, exchange, 0.9)
	reg50, regBlocks := blockQuantile(eps, register, 0.5)
	reg90, _ := blockQuantile(eps, register, 0.9)
	var mallocs, exchanges float64
	attempted, ok, samples := 0, 0, map[string]int{}
	for _, ep := range eps {
		mallocs += float64(ep.mallocs)
		exchanges += float64(ep.exchanges)
		for _, s := range ep.sessions {
			attempted++
			if s.err == nil {
				ok++
			}
		}
	}
	q := h.quality()
	samples["registers"] = int(mergeHists(eps, register).n)
	samples["register_blocks"] = regBlocks
	samples["exchanges"] = int(mergeHists(eps, exchange).n)
	samples["exchange_blocks"] = exBlocks
	samples["episodes"] = len(eps)
	samples["sessions"] = attempted
	samples["quality_sessions"] = q.n
	h.samples = map[string]interface{}{
		"counts":  samples,
		"setup_s": each(eps, func(ep *episode) float64 { return ep.setup }),
		// Reported but not an end-to-end metric: its run-to-run spread
		// is far wider than the p50's (see README.md).
		"register_p90_us": reg90,
	}
	m, err := withUnits(map[string]float64{
		"setup_s":             perEp(func(ep *episode) float64 { return ep.setup }),
		"sessions_per_s":      perEp(func(ep *episode) float64 { return ep.rate }),
		"exchange_p50_us":     ex50,
		"exchange_p90_us":     ex90,
		"register_p50_us":     reg50,
		"allocs_per_exchange": ratio(mallocs, exchanges),
		"live_heap_mb":        perEp(func(ep *episode) float64 { return ep.heapMiB }),
		"session_ok_frac":     ratio(float64(ok), float64(attempted)),
		"meas_s_per_session":  q.measS,
		"meas_s_to_98":        q.measTo98,
		"bad_iters":           q.bad,
		"best_true_wips":      q.bestTrue,
	}, endToEndUnits)
	if err != nil {
		panic(err) // the table and the computation above are one list
	}
	return m
}

// determ is the deterministic part of a run: the schedule digest and the
// metrics that must repeat exactly for a fixed seed.
func (h *harness) determ() map[string]interface{} {
	sched := fnv.New64a()
	for _, s := range h.qualitySessions() {
		fmt.Fprintf(sched, "%s|%x|%s;", s.id, math.Float64bits(s.ref), s.label)
	}
	q := h.quality()
	out := map[string]interface{}{
		"reach98_frac":             q.reach98,
		"schedule":                 fmt.Sprintf("%016x", sched.Sum64()),
		"meas_s_per_session":       q.measS,
		"meas_s_to_98":             q.measTo98,
		"bad_iters":                q.bad,
		"best_true_wips":           q.bestTrue,
		"search.evals_per_session": q.evals,
	}
	switch h.name {
	case "serial", "fleet":
		worst := math.Inf(1)
		for _, s := range h.qualitySessions() {
			if s.best != nil {
				worst = math.Min(worst, s.best.Perf/s.ref)
			}
		}
		out["worst_best_frac"] = worst
	case "prior-runs":
		c := h.qualityCounters()
		for _, k := range []string{"hits", "misses", "fills", "coalesced"} {
			out["evalcache."+k] = c[k]
		}
	case "retune-gated":
		out["estimated_bests"] = h.estimatedBests()
	}
	return out
}

// qualityCounters sums the server counters over the quality episodes.
func (h *harness) qualityCounters() map[string]float64 {
	sum := map[string]float64{}
	q := h.w.info().Quality
	for _, ep := range h.episodes {
		if q != 0 && ep.index >= q {
			continue
		}
		for k, v := range ep.srvCounters {
			sum[k] += v
		}
	}
	return sum
}

func spanDurations(spans []span, name string, self map[int64]int64) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		d := s.End - s.Start
		if self != nil {
			d = self[s.ID]
		}
		out = append(out, float64(d)/1e3)
	}
	return out
}

// perLayer computes the traced run's per-layer metrics and exports the
// spans and the per-layer summary.
func (h *harness) perLayer() (map[string]metric, error) {
	rec := h.rec
	rec.resolve()
	spans := rec.spans
	self := selfTimes(spans)
	traced, plain := h.timed(true), h.timed(false)

	sum := func(eps []*episode, key string) float64 {
		t := 0.0
		for _, ep := range eps {
			t += ep.srvCounters[key]
		}
		return t
	}
	var frames, flushes float64
	var allocBytes, gcs, exchanges float64
	for _, ep := range h.episodes {
		frames += float64(ep.muxFrames)
		flushes += float64(ep.muxFlushes)
	}
	for _, ep := range plain {
		allocBytes += float64(ep.allocBytes)
		gcs += float64(ep.gcs)
		exchanges += float64(ep.exchanges)
	}
	q := h.quality()
	qc := h.qualityCounters()
	web := h.name != "serial" && h.name != "fleet"

	dial := spanDurations(spans, "client.dial", nil)
	in := spanDurations(spans, "server.inbound", nil)
	out := spanDurations(spans, "server.outbound", nil)
	step, err := h.stepUS()
	if err != nil {
		return nil, err
	}
	gateUS := 0.0
	if h.name == "retune-gated" {
		gateUS = h.gateEstimateUS()
	}
	exchange := func(ep *episode) *latHist { return ep.ex }
	overhead := ratio(mergeHists(traced, exchange).quantile(0.5), mergeHists(plain, exchange).quantile(0.5)) - 1
	var open []float64
	for _, ep := range h.episodes {
		if ep.expOpen > 0 {
			open = append(open, float64(ep.expOpen)/float64(time.Millisecond))
		}
	}
	measures, measureMS, savedFrac := 0.0, 0.0, 0.0
	if web {
		measures = q.measures
		measureMS = median(spanDurations(spans, "webservice.measure", nil)) / 1e3
		savedFrac = 1 - ratio(q.measures, q.evals)
	}

	values := map[string]float64{
		"server.dial_us":                   median(dial),
		"server.register_self_us":          median(spanDurations(spans, "client.register", self)),
		"server.inbound_p50_us":            quantile(in, 0.5),
		"server.inbound_p90_us":            quantile(in, 0.9),
		"server.outbound_p50_us":           quantile(out, 0.5),
		"server.outbound_p90_us":           quantile(out, 0.9),
		"server.goroutines_per_session":    median(each(traced, func(ep *episode) float64 { return ep.goroutines })),
		"server.frames_per_flush":          ratio(sum(h.episodes, "flush_frames"), sum(h.episodes, "flushes")),
		"client.frames_per_flush":          ratio(frames, flushes),
		"server.credit_stalls":             sum(h.episodes, "credit_stalls"),
		"server.evictions":                 sum(h.episodes, "evictions"),
		"server.protocol_errors":           sum(h.episodes, "protocol_errors"),
		"server.sessions_retained":         median(each(h.episodes, func(ep *episode) float64 { return float64(ep.retained) })),
		"search.step_us":                   step,
		"search.evals_per_session":         q.evals,
		"search.simplex_ops_per_eval":      ratio(float64(rec.simplexOps.Load()), float64(rec.evals.Load())),
		"search.converge_reltol_frac":      ratio(float64(rec.reltol.Load()), float64(rec.converges.Load())),
		"evalcache.hit_ratio":              ratio(qc["hits"], qc["hits"]+qc["misses"]),
		"evalcache.fills":                  qc["fills"],
		"evalcache.coalesced":              qc["coalesced"],
		"evalcache.saved_frac":             savedFrac,
		"evalcache.gate_accept_ratio":      ratio(qc["estimated"], qc["estimated"]+qc["gate_rejects"]),
		"evalcache.gate_abs_err_mean":      ratio(qc["abs_err_sum"], qc["abs_err_n"]),
		"evalcache.truth_checks":           qc["truth_checks"],
		"evalcache.gate_estimate_us":       gateUS,
		"expdb.open_ms":                    median(open),
		"expdb.experiences":                float64(h.episodes[0].expSizes[0]),
		"expdb.records":                    float64(h.episodes[0].expSizes[1]),
		"expdb.match_us":                   median(spanDurations(spans, "expdb.match", nil)),
		"expdb.warmfill_us":                median(spanDurations(spans, "expdb.warmfill", nil)),
		"expdb.record_us":                  median(spanDurations(spans, "expdb.record", nil)),
		"expdb.match_ok_ratio":             ratio(float64(rec.matchOK.Load()), float64(rec.matches.Load())),
		"expdb.warm_start_frac":            q.warm,
		"webservice.measure_ms":            measureMS,
		"webservice.measures":              measures,
		"obs.trace_overhead_frac":          overhead,
		"runtime.alloc_bytes_per_exchange": ratio(allocBytes, exchanges),
		"runtime.gc_cycles":                ratio(1000*gcs, exchanges),
	}
	h.samples = map[string]interface{}{
		"episodes": len(h.episodes), "traced_episodes": len(traced),
		"spans": len(spans), "spans_dropped": rec.dropped,
		"inbound": len(in), "outbound": len(out), "quality_sessions": q.n,
	}
	m, err := withUnits(values, perLayerUnits)
	if err != nil {
		return nil, err
	}
	stem := fmt.Sprintf("%s-seed%d", h.name, h.seed)
	sp, sm, err := rec.export(h.out, stem, summarize(spans, self), values)
	if err != nil {
		return nil, err
	}
	h.traceFiles = []string{sp, sm}
	return m, nil
}

// stepUS replays the workload's first sessions with the same kernel
// in-process, without a server, and returns the kernel's own time per
// evaluation (wall time minus time spent in the objective).
func (h *harness) stepUS() (float64, error) {
	var kernel time.Duration
	evals := 0
	for _, r := range h.w.replays() {
		var inObj time.Duration
		var obj search.Objective = search.ObjectiveFunc(func(cfg search.Config) float64 {
			t := time.Now()
			v := r.measure(cfg)
			inObj += time.Since(t)
			return v
		})
		var init search.InitStrategy = search.ExtremeInit{}
		if r.improved {
			init = search.DistributedInit{}
		}
		if r.window > 1 {
			obj = search.Synchronized(obj)
		}
		t := time.Now()
		res, err := search.NelderMead(r.space, obj, search.NelderMeadOptions{
			Init: init, Direction: search.Maximize, MaxEvals: 10000, Parallel: r.window,
		})
		if err != nil {
			return 0, fmt.Errorf("kernel replay: %w", err)
		}
		kernel += time.Since(t) - inObj
		evals += res.Evals
	}
	return ratio(float64(kernel)/1e3, float64(evals)), nil
}

// gateEstimateUS replays the run's recorded truths into a fresh gate at
// default bounds and times Gate.Estimate over the recorded probes.
func (h *harness) gateEstimateUS() float64 {
	rec := h.rec
	g := evalcache.NewGate(h.w.space(), evalcache.GateOptions{}, nil)
	for _, t := range rec.truths {
		g.Observe(t.cfg, t.perf)
	}
	if len(rec.probes) == 0 {
		return 0
	}
	t := time.Now()
	for _, p := range rec.probes {
		g.Estimate(p)
	}
	return float64(time.Since(t)) / 1e3 / float64(len(rec.probes))
}
