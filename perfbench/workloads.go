package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/expdb"
	"harmony/internal/search"
	"harmony/internal/server"
	"harmony/internal/stats"
	"harmony/internal/tpcw"
	"harmony/internal/webservice"
)

// workload is one named traffic mix. An episode builds a fresh server with
// configure and drives a fixed, seeded batch of sessions at it.
type workload interface {
	// prepare derives the workload's inputs from the seed. It runs before
	// any timing and may be slow.
	prepare(h *harness) error
	// configure builds the episode's server: the set-up that setup_s times.
	configure(ep *episode, h *harness) error
	// drive runs the episode's sessions.
	drive(ep *episode, h *harness)
	// info describes the workload's fixed parameters for the result's
	// environment block.
	info() workloadInfo
	// space is the tuned space in kernel coordinates (the gate replay's).
	space() *search.Space
	// replays are sessions to re-run with the kernel in-process, without
	// a server, for search.step_us.
	replays() []replay
}

// replay is one in-process kernel run: the objective and the kernel
// options the server would use for the matching session.
type replay struct {
	space    *search.Space
	measure  func(search.Config) float64
	improved bool
	window   int
}

type workloadInfo struct {
	// Flags are the harmonyd flags the episode server is configured as.
	Flags string `json:"harmonyd_flags"`
	// Sessions is the episode's session count; InFlight how many of them
	// run at once; Conns how many connections carry them at once.
	Sessions int `json:"sessions_per_episode"`
	InFlight int `json:"sessions_in_flight"`
	Conns    int `json:"connections"`
	// MinEpisodes is how many episodes a run makes at least.
	MinEpisodes int `json:"min_episodes"`
	// Quality is how many leading episodes the per-session quality
	// metrics are taken over, a fixed schedule that repeats exactly for a
	// seed; 0 takes every episode (retune-gated, whose concurrent sessions
	// share a cache and do not repeat exactly anyway).
	Quality int    `json:"quality_episodes"`
	Client  string `json:"client"`
	Space   string `json:"space"`
	// GOGC is the collector target the process runs at, 0 for the Go
	// default. The web workloads' simulated application runs in the
	// benchmark process and allocates thousands of objects per
	// measurement; in production it runs in another process than the
	// server, so a higher target keeps its garbage from pacing the
	// server's collections.
	GOGC int `json:"gogc,omitempty"`
}

func workloadFor(name string) (workload, error) {
	switch name {
	case "serial":
		return &closedLoop{mux: false}, nil
	case "fleet":
		return &closedLoop{mux: true}, nil
	case "prior-runs":
		return &priorRuns{cache: true}, nil
	case "prior-runs-nocache":
		return &priorRuns{}, nil
	case "retune-gated":
		return &retuneGated{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want serial, fleet, prior-runs, prior-runs-nocache or retune-gated)", name)
}

// closedLoop is serial (mux false) and fleet (mux true): out-of-the-box
// lockstep clients tuning the closed-form bowl over the ten-parameter web
// cluster space, against a server with every harmonyd default.
type closedLoop struct {
	mux  bool
	web  *search.Space
	rsl  string
	seed uint64
}

const (
	serialSessions = 120
	fleetSessions  = 1536
	// fleetPerConn sessions are in flight on each of the two mux
	// connections: enough that the corked writers batch, under the
	// default 256-session cap.
	fleetPerConn = 64
)

func (w *closedLoop) prepare(h *harness) error {
	w.web = webservice.Space()
	w.rsl = rslFor(w.web)
	w.seed = h.seed
	return nil
}

func (w *closedLoop) space() *search.Space { return w.web }

func (w *closedLoop) info() workloadInfo {
	if w.mux {
		return workloadInfo{Flags: "(defaults)", Sessions: fleetSessions, InFlight: 2 * fleetPerConn, Conns: 2,
			MinEpisodes: 1, Quality: 1, Client: "v4-mux lockstep, default RegisterOptions, Mux.Session per session", Space: "webservice.Space (10 params), closed-form bowl"}
	}
	return workloadInfo{Flags: "(defaults)", Sessions: serialSessions, InFlight: 2, Conns: 2,
		MinEpisodes: 1, Quality: 1, Client: "v2 JSON lockstep, default RegisterOptions, one Dial per session", Space: "webservice.Space (10 params), closed-form bowl"}
}

func (w *closedLoop) replays() []replay {
	var out []replay
	for i := 0; i < 16; i++ {
		out = append(out, replay{space: w.web, measure: w.spec(0, i).measure})
	}
	return out
}

func (w *closedLoop) configure(ep *episode, h *harness) error { return ep.newServer() }

// spec is session i of episode e: its own seeded bowl.
func (w *closedLoop) spec(e, i int) *sessionSpec {
	b := newBowl(w.web, subSeed(w.seed, e, i))
	return &sessionSpec{
		id: fmt.Sprintf("e%d-s%d", e, i), rsl: w.rsl, space: w.web,
		measure: b.measure, ref: b.best, price: 1, measureSpan: "client.measure",
	}
}

func (w *closedLoop) drive(ep *episode, h *harness) {
	n := serialSessions
	if w.mux {
		n = fleetSessions
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	// worker runs sessions until the episode's are taken. onFirst, when
	// set, becomes the ready hook of the worker's first session.
	worker := func(connect func() (*server.Client, error), dials bool, onFirst func()) {
		defer wg.Done()
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				if onFirst != nil {
					onFirst()
				}
				return
			}
			// Each session's inputs are derived as it starts, so their
			// derivation stays out of the set-up time.
			spec := w.spec(ep.index, i)
			if onFirst != nil {
				spec.ready, onFirst = onFirst, nil
			}
			ep.runSession(spec, connect, dials, 1)
		}
	}
	if !w.mux {
		dial := func() (*server.Client, error) { return server.Dial(ep.addr, 5*time.Second) }
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go worker(dial, true, nil)
		}
		wg.Wait()
		return
	}
	var muxes []*server.Mux
	for k := 0; k < 2; k++ {
		var id, start int64
		if ep.rec != nil {
			id, start = ep.rec.begin()
		}
		mx, err := server.DialMux(ep.addr, 5*time.Second)
		if ep.rec != nil {
			ep.rec.finish(id, 0, "client.dial", "", start)
		}
		if err != nil {
			ep.mu.Lock()
			ep.connErrs++
			ep.mu.Unlock()
			continue
		}
		muxes = append(muxes, mx)
	}
	// The sessions in flight ramp up one register at a time, alternating
	// connections: each connection's first register negotiates the mux,
	// set-up is timed without a burst behind it, and no register queues
	// behind a hundred others.
	prev := make(chan struct{})
	close(prev)
	for j := 0; j < fleetPerConn; j++ {
		for _, mx := range muxes {
			connect := func() (*server.Client, error) { return mx.Session(), nil }
			wait, next := prev, make(chan struct{})
			var once sync.Once
			wg.Add(1)
			go func() {
				<-wait
				worker(connect, false, func() { once.Do(func() { close(next) }) })
			}()
			prev = next
		}
	}
	wg.Wait()
	for _, mx := range muxes {
		frames, flushes := mx.Stats()
		ep.mu.Lock()
		ep.connErrs += int(mx.ConnErrors())
		ep.muxFrames += frames
		ep.muxFlushes += flushes
		ep.mu.Unlock()
		mx.Close()
	}
}

// shuffled is a seeded permutation of 0..n-1.
func shuffled(n int, seed uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	stats.NewRNG(seed).Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// webMix is one workload of the prior-runs and retune-gated population
// with its tuner-free reference.
type webMix struct {
	mix     tpcw.Mix
	ref     float64
	measure func(search.Config) float64 // ObjectiveStable in the tuned space
}

// priorRuns is the paper's §4.2/§6 scenario: successive production runs of
// one application, one session at a time, each registering its workload
// characteristics against a durable experience database. prior-runs adds
// a session-scope exact eval cache warm-filled from prior runs;
// prior-runs-nocache is the same schedule with the cache off.
type priorRuns struct {
	cache bool
	web   *search.Space
	rsl   string
	pool  []webMix
	cold  []int // the seeded order episodes take their cold mix in
	seed  uint64
	base  string // the pre-populated expdb directory
	work  string
}

// webGOGC is the web workloads' collector target (see workloadInfo.GOGC).
const webGOGC = 400

const (
	priorSessions = 12
	// The pre-populated database: other applications' namespaces that the
	// store recovers on open.
	bgApps        = 12
	bgExperiences = 24
	bgRecords     = 64
)

func (w *priorRuns) space() *search.Space { return w.web }

func (w *priorRuns) replays() []replay {
	return []replay{
		{space: w.web, measure: w.pool[0].measure, improved: true},
		{space: w.web, measure: w.pool[3].measure, improved: true},
	}
}

func (w *priorRuns) info() workloadInfo {
	flags := "-data-dir <tmp> -expdb-fsync none"
	if w.cache {
		flags += " -eval-cache session"
	}
	return workloadInfo{Flags: flags, Sessions: priorSessions,
		InFlight: 1, Conns: 1, MinEpisodes: 6, Quality: 6, GOGC: webGOGC,
		Client: "v3 binary lockstep, App + Characteristics, Improved",
		Space:  fmt.Sprintf("webservice.Space (10 params), ObjectiveStable, %gs simulated per measurement", simSeconds)}
}

func (w *priorRuns) prepare(h *harness) error {
	w.web = webservice.Space()
	w.rsl = rslFor(w.web)
	w.seed = h.seed
	cluster := newCluster(appSeed)
	for k, mix := range mixPool() {
		obj := cluster.ObjectiveStable(mix)
		wm := webMix{mix: mix, measure: obj.Measure}
		wm.ref = reference(w.web, wm.measure, subSeed(appSeed, k))
		w.pool = append(w.pool, wm)
	}
	w.cold = shuffled(len(w.pool), subSeed(h.seed, 6))
	w.work = filepath.Join(h.out, fmt.Sprintf("work-prior-runs-%d", h.seed))
	if err := os.RemoveAll(w.work); err != nil {
		return err
	}
	w.base = filepath.Join(w.work, "base")
	h.cleanup = append(h.cleanup, func() error { return os.RemoveAll(w.work) })
	return populate(w.base, w.web, subSeed(h.seed, 4))
}

// populate fills dir with other applications' experiences, so that
// recovery on open has real work to do.
func populate(dir string, space *search.Space, seed uint64) error {
	db, err := expdb.Open(expdb.Options{Dir: dir, Sync: expdb.SyncNone})
	if err != nil {
		return err
	}
	rng := stats.NewRNG(seed)
	for a := 0; a < bgApps; a++ {
		key := fmt.Sprintf("background-%d/%016x", a, rng.Uint64())
		for e := 0; e < bgExperiences; e++ {
			chars := make([]float64, tpcw.NumInteractions)
			for i := range chars {
				chars[i] = rng.Float64()
			}
			tr := make(search.Trace, bgRecords)
			for i := range tr {
				tr[i] = search.Evaluation{Index: i, Config: randomConfig(space, rng), Perf: rng.Uniform(20, 120)}
			}
			if _, err := db.Deposit(key, "", chars, search.Maximize, tr); err != nil {
				db.Close()
				return err
			}
		}
	}
	return db.Close()
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// stage copies the pre-populated database for episode e; the copy is data
// preparation and runs before the episode's clock starts.
func (w *priorRuns) stage(e int) (string, error) {
	dir := filepath.Join(w.work, fmt.Sprintf("ep%d", e))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, copyDir(w.base, dir)
}

func (w *priorRuns) configure(ep *episode, h *harness) error {
	if err := ep.newServer(); err != nil {
		return err
	}
	t0 := time.Now()
	var id, start int64
	if ep.rec != nil {
		id, start = ep.rec.begin()
	}
	db, err := expdb.Open(expdb.Options{
		Dir:           ep.dataDir,
		Sync:          expdb.SyncNone,
		SnapshotEvery: expdb.DefaultSnapshotEvery,
		CompactAbove:  server.DefaultExperienceCompactAbove,
		MergeDist:     server.DefaultExperienceMergeDist,
		KeepRecords:   server.DefaultExperienceKeepRecords,
		Logger:        ep.rt.Logger,
		Metrics:       expdb.NewMetrics(ep.rt.Registry),
	})
	if ep.rec != nil {
		ep.rec.finish(id, 0, "expdb.open", "", start)
	}
	if err != nil {
		return err
	}
	ep.expOpen = time.Since(t0)
	for _, ns := range db.Namespaces() {
		ep.expSizes[0] += ns.Experiences
		ep.expSizes[1] += ns.Records
	}
	dir := ep.dataDir
	ep.cleanup = append(ep.cleanup, db.Close, func() error { return os.RemoveAll(dir) })
	ep.srv.Experience = server.NewDurableStore(db, ep.rt.Logger)
	if w.cache {
		ep.evalCache(server.CacheSession, false)
	}
	return nil
}

func (w *priorRuns) drive(ep *episode, h *harness) {
	rng := stats.NewRNG(subSeed(w.seed, 5, ep.index))
	// A balanced schedule: every mix runs equally often in every episode,
	// in seeded order, and the episode's first session, the one that
	// starts cold, cycles through the mixes across episodes. The seed
	// moves the order, not the composition.
	order := make([]int, priorSessions)
	for i := range order {
		order[i] = i % len(w.pool)
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	cold := w.cold[ep.index%len(w.cold)]
	for i, k := range order {
		if k == cold {
			order[0], order[i] = order[i], order[0]
			break
		}
	}
	dial := func() (*server.Client, error) { return server.Dial(ep.addr, 5*time.Second) }
	for i := 0; i < priorSessions; i++ {
		wm := w.pool[order[i]]
		spec := &sessionSpec{
			id: fmt.Sprintf("e%d-s%d", ep.index, i), rsl: w.rsl, space: w.web,
			opts: server.RegisterOptions{
				Proto: 3, Improved: true, App: "storefront",
				Characteristics: characteristics(wm.mix, rng.Uint64()),
			},
			measure: wm.measure, ref: wm.ref, price: simSeconds, measureSpan: "webservice.measure",
			label: wm.mix.Name,
		}
		ep.runSession(spec, dial, true, 1)
	}
}

// retuneGated re-tunes one application namespace over and over: two
// concurrent pipelined sessions per round on the four most sensitive
// parameters, against the shared eval cache and the §4.3 estimation gate
// at default bounds.
type retuneGated struct {
	sub   *search.Space
	embed func(search.Config) search.Config
	rsl   string
	pool  []webMix
	order []int // the seeded order episodes take the mixes in
	seed  uint64
}

const (
	retuneRounds = 6
	retuneWindow = 2
	retuneTopN   = 4
)

func (w *retuneGated) space() *search.Space { return w.sub }

func (w *retuneGated) replays() []replay {
	return []replay{
		{space: w.sub, measure: w.pool[0].measure, improved: true, window: retuneWindow},
		{space: w.sub, measure: w.pool[3].measure, improved: true, window: retuneWindow},
	}
}

func (w *retuneGated) info() workloadInfo {
	return workloadInfo{Flags: "-eval-cache shared -estimate-gate", Sessions: 2 * retuneRounds, InFlight: 2, Conns: 2,
		MinEpisodes: 3, GOGC: webGOGC, Client: fmt.Sprintf("v3 binary, window %d (TuneParallel), App + Characteristics, 2 lanes of sessions", retuneWindow),
		Space: fmt.Sprintf("top-%d sensitivity subspace of webservice.Space, ObjectiveStable, %gs simulated per measurement", retuneTopN, simSeconds)}
}

func (w *retuneGated) prepare(h *harness) error {
	w.seed = h.seed
	cluster := newCluster(appSeed)
	var err error
	w.sub, w.embed, err = topSubspace(cluster, retuneTopN)
	if err != nil {
		return err
	}
	w.rsl = rslFor(w.sub)
	w.order = shuffled(len(mixPool()), subSeed(h.seed, 6))
	for k, mix := range mixPool() {
		obj := cluster.ObjectiveStable(mix)
		embed := w.embed
		wm := webMix{mix: mix, measure: func(cfg search.Config) float64 { return obj.Measure(embed(cfg)) }}
		wm.ref = reference(w.sub, wm.measure, subSeed(appSeed, k))
		w.pool = append(w.pool, wm)
	}
	return nil
}

func (w *retuneGated) configure(ep *episode, h *harness) error {
	if err := ep.newServer(); err != nil {
		return err
	}
	ep.evalCache(server.CacheShared, true)
	return nil
}

func (w *retuneGated) drive(ep *episode, h *harness) {
	// Episodes cycle through the mixes in a seeded order, so every run
	// covers them evenly.
	wm := w.pool[w.order[ep.index%len(w.order)]]
	dial := func() (*server.Client, error) { return server.Dial(ep.addr, 5*time.Second) }
	// Two lanes run sessions back to back, so the CPUs stay busy with one
	// lane's measurements while the other registers: sessions never start
	// on an idle machine.
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < retuneRounds; r++ {
				i := 2*r + k
				ep.runSession(&sessionSpec{
					id: fmt.Sprintf("e%d-s%d", ep.index, i), rsl: w.rsl, space: w.sub,
					opts: server.RegisterOptions{
						Proto: 3, Window: retuneWindow, Improved: k == 0, App: "storefront",
						Characteristics: characteristics(wm.mix, subSeed(w.seed, 5, ep.index, i)),
					},
					measure: wm.measure, ref: wm.ref, price: simSeconds, measureSpan: "webservice.measure",
					label: wm.mix.Name,
				}, dial, true, retuneWindow)
			}
		}()
	}
	wg.Wait()
}
