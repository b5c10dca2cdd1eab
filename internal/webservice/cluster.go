package webservice

import (
	"fmt"
	"math"

	"harmony/internal/search"
	"harmony/internal/stats"
	"harmony/internal/tpcw"
)

// Parameter indices into the tuning space, in the order of the paper's
// Figure 8.
const (
	PAJPAcceptCount = iota
	PAJPMaxProcessors
	PHTTPBufferSize
	PHTTPAcceptCount
	PMySQLMaxConnections
	PMySQLDelayedQueue
	PMySQLNetBufferLength
	PProxyMaxObjectMem
	PProxyMinObject
	PProxyCacheMem
	NumParams
)

// Space returns the ten-parameter tuning space of the cluster-based web
// service system, with the names the paper's Figure 8 uses.
func Space() *search.Space {
	return search.MustSpace(
		search.Param{Name: "AJPAcceptCount", Min: 8, Max: 120, Step: 8, Default: 24},
		search.Param{Name: "AJPMaxProcessors", Min: 4, Max: 60, Step: 4, Default: 16},
		search.Param{Name: "HTTPBufferSize", Min: 2, Max: 30, Step: 2, Default: 8},
		search.Param{Name: "HTTPAcceptCount", Min: 8, Max: 120, Step: 8, Default: 32},
		search.Param{Name: "MySQLMaxConnections", Min: 4, Max: 60, Step: 4, Default: 24},
		search.Param{Name: "MySQLDelayedQueue", Min: 0, Max: 56, Step: 4, Default: 12},
		search.Param{Name: "MySQLNetBufferLength", Min: 1, Max: 15, Step: 1, Default: 4},
		search.Param{Name: "PROXYMaxObjectMem", Min: 8, Max: 120, Step: 8, Default: 32},
		search.Param{Name: "PROXYMinObject", Min: 0, Max: 14, Step: 1, Default: 0},
		search.Param{Name: "PROXYCacheMem", Min: 16, Max: 240, Step: 16, Default: 64},
	)
}

// Options configures a simulation run.
type Options struct {
	// Browsers is the number of emulated browsers (default 130).
	Browsers int
	// Duration is the simulated horizon in seconds (default 120).
	Duration float64
	// Warmup excludes the ramp-up phase from the WIPS window (default 10).
	Warmup float64
	// ThinkMean is the emulated browser think time mean in seconds
	// (default 1.0; scaled down from TPC-W's 7 s so short simulations
	// saturate the tiers the way the paper's cluster did).
	ThinkMean float64
	// Seed drives the stochastic request stream.
	Seed uint64
	// Fidelity, when in (0, 1), shortens the post-warmup measurement
	// window to that fraction of the full horizon and overlays a
	// deterministic per-(seed, config, fidelity) noise term on WIPS —
	// cheaper and noisier, exactly like a real short benchmark run. 0 and
	// ≥1 mean full fidelity; the simulation is then bit-identical to the
	// pre-multi-fidelity one.
	Fidelity float64
}

func (o *Options) fill() {
	if o.Browsers == 0 {
		o.Browsers = 130
	}
	if o.Duration == 0 {
		o.Duration = 120
	}
	if o.Warmup == 0 {
		o.Warmup = 10
	}
	if o.ThinkMean == 0 {
		o.ThinkMean = 1.0
	}
}

// Result summarizes one simulation run.
type Result struct {
	WIPS float64 // completed web interactions per second (post-warmup)
	// WIPSb and WIPSo are TPC-W's secondary metrics: the completion rates
	// of Browse-class and Order-class interactions respectively.
	WIPSb       float64
	WIPSo       float64
	Completed   int
	Dropped     int
	AvgResponse float64 // mean response time of completed interactions (s)
	ProxyUtil   float64
	AppUtil     float64
	DBUtil      float64
	CacheHits   int
}

// request is one in-flight web interaction.
type request struct {
	browser   int
	inter     tpcw.Interaction
	issuedAt  float64
	needsDB   bool
	asyncSlot bool // holds a delayed-write queue slot
	stage     int  // 0 proxy, 1 app, 2 db
}

// config is the decoded parameter vector.
type config struct {
	ajpAccept  int
	ajpWorkers int
	httpBufKB  int
	httpAccept int
	dbConns    int
	delayedQ   int
	netBufKB   int
	maxObjKB   int
	minObjKB   int
	cacheMemMB int
}

func decode(cfg search.Config) (config, error) {
	if len(cfg) != NumParams {
		return config{}, fmt.Errorf("webservice: config has %d values, want %d", len(cfg), NumParams)
	}
	return config{
		ajpAccept:  cfg[PAJPAcceptCount],
		ajpWorkers: cfg[PAJPMaxProcessors],
		httpBufKB:  cfg[PHTTPBufferSize],
		httpAccept: cfg[PHTTPAcceptCount],
		dbConns:    cfg[PMySQLMaxConnections],
		delayedQ:   cfg[PMySQLDelayedQueue],
		netBufKB:   cfg[PMySQLNetBufferLength],
		maxObjKB:   cfg[PProxyMaxObjectMem],
		minObjKB:   cfg[PProxyMinObject],
		cacheMemMB: cfg[PProxyCacheMem],
	}, nil
}

// Calibration constants for the queueing model. They are chosen so the
// default configuration lands in the paper's 50–90 WIPS band with the
// application tier as the primary bottleneck, the database heavily used
// under the ordering mix, and the proxy cache the big lever under shopping.
const (
	proxyServers     = 2
	proxyHandleS     = 0.006  // base proxy work per request
	proxyHitPerKBS   = 0.0004 // serving a cached object, per KB
	proxyDiskHitS    = 0.035  // extra cost when the object lives on disk
	proxyRAMCapMB    = 200.0  // beyond this the proxy starts swapping
	cacheMemTauMB    = 90.0   // cache capacity saturation constant
	appBaseS         = 0.040
	appPerCPUS       = 0.200
	appFlushPerKBS   = 0.006 // per buffer flush (resultKB / bufKB flushes)
	appPerBufKBS     = 0.0005
	appWorkerKneeN   = 28.0 // thrashing knee in worker count
	appThrashScale   = 12.0
	dbBaseS          = 0.030
	dbPerReadS       = 0.100
	dbXferPerKBS     = 0.012 // per netBuf-sized round trip
	dbPerBufKBS      = 0.0006
	dbSyncWriteS     = 0.300 // per unit of DBWrite, synchronous
	dbAsyncWriteS    = 0.060 // per unit of DBWrite, via the delayed queue
	dbDrainHoldS     = 0.35  // slot hold time per unit of DBWrite
	dbConnKneeN      = 12.0  // contention knee in busy connections
	dbConnScale      = 14.0
	dbRAMCapMB       = 256.0
	dbBaseMemMB      = 64.0
	dbMemPerConnBuf  = 0.4 // MB per connection per netBuf KB
	dbMemPerDelayed  = 1.2 // MB per delayed-queue slot
	swapPenaltyPerMB = 0.016
	dropTimeoutS     = 1.5 // browser wait before retrying a dropped request
)

// Cluster is the simulated three-tier system.
type Cluster struct {
	opts Options
}

// NewCluster returns a simulator with the given options.
func NewCluster(opts Options) *Cluster {
	opts.fill()
	return &Cluster{opts: opts}
}

// Run simulates the cluster under cfg serving the mix and returns the
// measured performance. It is deterministic in (cfg, mix, opts.Seed,
// opts.Fidelity).
func (c *Cluster) Run(cfg search.Config, mix tpcw.Mix) (Result, error) {
	pc, err := decode(cfg)
	if err != nil {
		return Result{}, err
	}
	opts := c.opts
	reduced := opts.Fidelity > 0 && opts.Fidelity < 1
	if reduced {
		// Shorter sampled-request horizon: the warmup still runs in full
		// (the tiers must fill), only the measurement window shrinks.
		opts.Duration = opts.Warmup + (opts.Duration-opts.Warmup)*opts.Fidelity
	}
	sim := &simulation{
		opts: opts,
		cfg:  pc,
		mix:  mix,
		rng:  stats.NewRNG(opts.Seed ^ 0x9e3779b97f4a7c15),
	}
	res := sim.run()
	if reduced {
		// Per-rung noise model: a short run's throughput estimate wobbles.
		// The multiplier is deterministic in (seed, config, fidelity) so
		// repeated measurements coalesce, and its amplitude grows as the
		// window shrinks.
		m := fidelityNoise(opts.Seed, cfg, opts.Fidelity)
		res.WIPS *= m
		res.WIPSb *= m
		res.WIPSo *= m
	}
	return res, nil
}

// fidelityNoiseAmp is the relative WIPS noise amplitude as fidelity → 0.
const fidelityNoiseAmp = 0.12

// fidelityNoise returns the deterministic multiplicative noise term for a
// reduced-fidelity run: uniform in 1 ± fidelityNoiseAmp·(1−f), hashed from
// the seed, the configuration content and the fidelity itself so distinct
// rungs of the same configuration observe distinct wobbles.
func fidelityNoise(seed uint64, cfg search.Config, f float64) float64 {
	h := seed ^ 0xd1b54a32d192ed03
	for _, v := range cfg {
		h ^= uint64(int64(v))
		h *= 1099511628211
	}
	h ^= math.Float64bits(f)
	h *= 1099511628211
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	u := float64(h>>11) / (1 << 53) // uniform [0, 1)
	return 1 + fidelityNoiseAmp*(1-f)*(2*u-1)
}

// Objective adapts the cluster to the search kernel: every measurement runs
// one simulation. When vary is true each measurement gets a fresh seed, so
// repeated measurements of the same configuration differ run-to-run the way
// the real cluster's do; when false the seed is fixed (useful for
// deterministic tests and exhaustive sweeps).
func (c *Cluster) Objective(mix tpcw.Mix, vary bool) search.Objective {
	seq := uint64(0)
	return search.ObjectiveFunc(func(cfg search.Config) float64 {
		opts := c.opts
		if vary {
			seq++
			opts.Seed = c.opts.Seed*1315423911 + seq
		}
		res, err := NewCluster(opts).Run(cfg, mix)
		if err != nil {
			panic(err) // the space is fixed; a bad config is a bug
		}
		return res.WIPS
	})
}

// ObjectiveStable adapts the cluster to the parallel search paths: like
// Objective(mix, true) each configuration sees measurement variation, but
// the variation is derived from the configuration's own content (an FNV-1a
// hash of its values) rather than from a shared call counter. Measurements
// are therefore independent of call order and concurrency — the same
// configuration always runs the same simulated minute, no matter which
// of search.Drive's measurement goroutines asks — which makes the
// objective both safe for concurrent use and deterministic under parallel
// kernel steps. The sequential and parallel kernels see identical values
// for identical probes.
func (c *Cluster) ObjectiveStable(mix tpcw.Mix) search.Objective {
	return search.ObjectiveFunc(func(cfg search.Config) float64 {
		opts := c.opts
		opts.Seed = c.opts.Seed*1315423911 + contentHash(cfg)
		res, err := NewCluster(opts).Run(cfg, mix)
		if err != nil {
			panic(err) // the space is fixed; a bad config is a bug
		}
		return res.WIPS
	})
}

// ObjectiveStableAt is ObjectiveStable with a fidelity dial: full-fidelity
// measurements are bit-identical to ObjectiveStable's (so exact-mode
// trajectories are unchanged when multi-fidelity is off), while fidelity
// f ∈ (0, 1) runs the deterministically shorter, noisier simulation (see
// Options.Fidelity). Safe for concurrent use and independent of call
// order, like ObjectiveStable.
func (c *Cluster) ObjectiveStableAt(mix tpcw.Mix) search.FidelityObjective {
	return search.FidelityObjectiveFunc(func(cfg search.Config, fidelity float64) float64 {
		opts := c.opts
		opts.Seed = c.opts.Seed*1315423911 + contentHash(cfg)
		if !search.FullFidelity(fidelity) {
			opts.Fidelity = fidelity
		}
		res, err := NewCluster(opts).Run(cfg, mix)
		if err != nil {
			panic(err) // the space is fixed; a bad config is a bug
		}
		return res.WIPS
	})
}

// contentHash is the FNV-1a hash of the configuration values that derives
// ObjectiveStable's per-configuration measurement seed.
func contentHash(cfg search.Config) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for _, v := range cfg {
		h ^= uint64(int64(v))
		h *= fnvPrime
	}
	return h
}

// simulation carries the state of one run.
type simulation struct {
	opts    Options
	cfg     config
	mix     tpcw.Mix
	sampler tpcw.Sampler
	rng     *stats.RNG

	sched scheduler
	proxy *station
	app   *station
	db    *station

	delayedBusy int // occupied delayed-write slots

	completed  int
	completedO int // order-class completions
	dropped    int
	cacheHits  int
	respSum    float64
	swapProxy  float64 // cached penalty multipliers
	thrashApp  float64
	swapDB     float64
	contention float64 // recomputed per dispatch
}

func (s *simulation) run() Result {
	s.sampler = s.mix.Sampler() // hoist the per-draw normalization
	s.proxy = newStation("proxy", proxyServers, s.cfg.httpAccept)
	s.app = newStation("app", s.cfg.ajpWorkers, s.cfg.ajpAccept)
	s.db = newStation("db", s.cfg.dbConns, 4*s.cfg.dbConns+16)

	// Static penalty multipliers derived from the configuration.
	s.swapProxy = 1 + swapOver(float64(s.cfg.cacheMemMB), proxyRAMCapMB)
	w := float64(s.cfg.ajpWorkers)
	over := (w - appWorkerKneeN) / appThrashScale
	if over < 0 {
		over = 0
	}
	s.thrashApp = 1 + over*over
	dbMem := dbBaseMemMB +
		float64(s.cfg.dbConns)*float64(s.cfg.netBufKB)*dbMemPerConnBuf +
		float64(s.cfg.delayedQ)*dbMemPerDelayed
	s.swapDB = 1 + swapOver(dbMem, dbRAMCapMB)

	// Stagger the browsers' first requests across one think period.
	for b := 0; b < s.opts.Browsers; b++ {
		s.sched.schedule(s.rng.Uniform(0, s.opts.ThinkMean), evIssue, &request{browser: b}, nil)
	}

	for {
		ev, ok := s.sched.next()
		if !ok || s.sched.now > s.opts.Duration {
			break
		}
		switch ev.kind {
		case evIssue:
			s.issue(ev.req.browser)
		case evDone:
			s.finishService(ev.req, ev.st)
		case evDrain:
			s.delayedBusy--
		case evTimeout:
			s.thinkNext(ev.req.browser)
		}
	}

	window := s.opts.Duration - s.opts.Warmup
	res := Result{
		Completed: s.completed,
		Dropped:   s.dropped,
		CacheHits: s.cacheHits,
		ProxyUtil: s.proxy.utilization(s.opts.Duration),
		AppUtil:   s.app.utilization(s.opts.Duration),
		DBUtil:    s.db.utilization(s.opts.Duration),
	}
	if window > 0 {
		res.WIPS = float64(s.completed) / window
		res.WIPSo = float64(s.completedO) / window
		res.WIPSb = float64(s.completed-s.completedO) / window
	}
	if s.completed > 0 {
		res.AvgResponse = s.respSum / float64(s.completed)
	}
	return res
}

func swapOver(used, cap float64) float64 {
	if used <= cap {
		return 0
	}
	return (used - cap) * swapPenaltyPerMB
}

// issue has browser b start a fresh web interaction at the proxy.
func (s *simulation) issue(b int) {
	r := &request{
		browser:  b,
		inter:    s.sampler.Sample(s.rng),
		issuedAt: s.sched.now,
	}
	admitted, started := s.proxy.offer(s.sched.now, r)
	if !admitted {
		s.drop(r)
		return
	}
	if started {
		s.startProxy(r)
	}
}

// startProxy dispatches proxy service for r: either a cache hit (respond
// directly) or a miss (forward to the app tier afterwards).
func (s *simulation) startProxy(r *request) {
	p := tpcw.ProfileOf(r.inter)
	hit := false
	if p.Cacheable > 0 && p.ResultKB >= float64(s.cfg.minObjKB) {
		capFactor := 1 - math.Exp(-float64(s.cfg.cacheMemMB)/cacheMemTauMB)
		hit = s.rng.Float64() < p.Cacheable*capFactor
	}
	st := proxyHandleS * s.swapProxy
	if hit {
		s.cacheHits++
		st += p.ResultKB * proxyHitPerKBS * s.swapProxy
		if p.ResultKB > float64(s.cfg.maxObjKB) {
			// Object too large for the memory cache: served from disk.
			st += proxyDiskHitS
		}
		r.stage = -1 // respond directly after proxy service
		s.sched.schedule(st, evDone, r, s.proxy)
		return
	}
	r.stage = 0
	s.sched.schedule(st, evDone, r, s.proxy)
}

// finishService routes a request onward when a station completes it.
func (s *simulation) finishService(r *request, st *station) {
	// Free the server and pull the next queued request into service.
	if next, ok := st.release(s.sched.now); ok {
		switch st {
		case s.proxy:
			s.startProxy(next)
		case s.app:
			s.startApp(next)
		case s.db:
			s.startDB(next)
		}
	}
	switch {
	case st == s.proxy && r.stage == -1:
		s.respond(r) // cache hit
	case st == s.proxy:
		s.forward(r, s.app)
	case st == s.app:
		p := tpcw.ProfileOf(r.inter)
		if !p.StaticOnly && (p.DBRead > 0 || p.DBWrite > 0) {
			s.forward(r, s.db)
		} else {
			s.respond(r)
		}
	case st == s.db:
		s.respond(r)
	}
}

// forward hands a request to the next tier, dropping it when that tier's
// accept queue is full.
func (s *simulation) forward(r *request, to *station) {
	admitted, started := to.offer(s.sched.now, r)
	if !admitted {
		s.drop(r)
		return
	}
	if !started {
		return
	}
	if to == s.app {
		s.startApp(r)
	} else {
		s.startDB(r)
	}
}

// startApp dispatches application-server service.
func (s *simulation) startApp(r *request) {
	p := tpcw.ProfileOf(r.inter)
	st := (appBaseS + appPerCPUS*p.CPU) * s.thrashApp
	// Response streaming: resultKB/bufKB buffer flushes plus buffer cost.
	buf := float64(s.cfg.httpBufKB)
	st += p.ResultKB / buf * appFlushPerKBS
	st += buf * appPerBufKBS
	r.stage = 1
	s.sched.schedule(st, evDone, r, s.app)
}

// startDB dispatches database service. Service time depends on the number
// of busy connections at dispatch (lock and scheduler contention).
func (s *simulation) startDB(r *request) {
	p := tpcw.ProfileOf(r.inter)
	busy := float64(s.db.busy)
	over := (busy - dbConnKneeN) / dbConnScale
	if over < 0 {
		over = 0
	}
	mult := (1 + over*over) * s.swapDB

	st := (dbBaseS + dbPerReadS*p.DBRead) * mult
	// Result transfer in netBuf-sized round trips.
	buf := float64(s.cfg.netBufKB)
	st += p.ResultKB / buf * dbXferPerKBS
	st += buf * dbPerBufKBS

	if p.DBWrite > 0 {
		if s.delayedBusy < s.cfg.delayedQ {
			// Asynchronous write through the delayed queue.
			s.delayedBusy++
			r.asyncSlot = true
			st += dbAsyncWriteS * p.DBWrite * mult
			s.sched.schedule(st+dbDrainHoldS*p.DBWrite, evDrain, r, nil)
		} else {
			st += dbSyncWriteS * p.DBWrite * mult
		}
	}
	r.stage = 2
	s.sched.schedule(st, evDone, r, s.db)
}

// respond completes the interaction and schedules the browser's next one.
func (s *simulation) respond(r *request) {
	if s.sched.now >= s.opts.Warmup {
		s.completed++
		if r.inter.IsOrder() {
			s.completedO++
		}
		s.respSum += s.sched.now - r.issuedAt
	}
	s.thinkNext(r.browser)
}

// drop rejects the interaction; the browser waits out a timeout first.
func (s *simulation) drop(r *request) {
	if s.sched.now >= s.opts.Warmup {
		s.dropped++
	}
	s.sched.schedule(dropTimeoutS, evTimeout, &request{browser: r.browser}, nil)
}

// thinkNext schedules browser b's next interaction after a think pause.
func (s *simulation) thinkNext(b int) {
	s.sched.schedule(s.rng.Exp(s.opts.ThinkMean), evIssue, &request{browser: b}, nil)
}
