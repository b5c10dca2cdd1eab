package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/drift"
	"harmony/internal/evalcache"
	"harmony/internal/expdb"
	"harmony/internal/mfsearch"
	"harmony/internal/obs"
	"harmony/internal/rsl"
	"harmony/internal/search"
)

// Server hosts tuning sessions, one per client connection.
//
// The server is designed to be long-lived: the cross-run experience database
// (§4.2) only pays off if the server survives client crashes, stalled
// connections, partial writes and garbage bytes without corrupting sessions.
// The robustness knobs below (IdleTimeout, WriteTimeout, FailureBudget) bound
// how much misbehaviour one client can inflict, and Shutdown drains in-flight
// sessions with a hard cutoff.
type Server struct {
	// MaxEvalsCap bounds per-session budgets regardless of what clients
	// request. 0 (or negative) means DefaultMaxEvalsCap.
	MaxEvalsCap int
	// IdleTimeout disconnects clients that send nothing for this long
	// (0 = no limit). Measuring one configuration must fit inside it.
	IdleTimeout time.Duration
	// WriteTimeout bounds each reply write (0 = no limit), so a client that
	// stops draining its socket cannot wedge a session goroutine forever.
	WriteTimeout time.Duration
	// MaxWindow caps the pipeline depth a client may declare at
	// registration (protocol v2): sessions asking for more are granted this
	// much. 0 means DefaultMaxWindow; negative (or 1) forces every session
	// into the lockstep v1 exchange, which is also how tests exercise
	// v2-client-versus-lockstep-server interop.
	MaxWindow int
	// FailureBudget is how many per-session faults (garbage lines,
	// non-finite performance reports) the server tolerates before failing
	// the session. 0 means the default of 3; negative means zero tolerance.
	// Tolerated non-finite reports score the pending configuration with the
	// worst-case penalty (search.FailurePenalty) so the simplex moves on
	// instead of wedging.
	FailureBudget int
	// Logger receives structured session-level events (session start/end,
	// tolerated faults, partial-trace deposits, shutdown progress). Every
	// record carries the session ID. Nil discards. Set it before Listen.
	Logger *slog.Logger
	// Metrics, when set, receives the server's counter updates (sessions
	// started/active/completed/failed/severed, failure-budget spend,
	// protocol errors, deposits, warm starts, drain durations). Build it
	// with NewMetrics(registry); nil disables metrics at ~zero cost. Set
	// it before Listen.
	Metrics *Metrics
	// Tracer, when set, receives every session's typed tuning events
	// (evaluations, simplex operations, seeds, convergence decisions,
	// failure-budget charges), each stamped with the session ID so one
	// shared sink — e.g. an obs.JSONL behind harmonyd's -trace-out —
	// interleaves sessions demultiplexably. The sink must be safe for
	// concurrent Emit. Set it before Listen.
	Tracer search.Tracer
	// OnSessionEnd, when set, is called once a session's message loop has
	// finished and its trace (possibly partial) has been deposited — one
	// call per session, from the goroutine that ran it. Intended for
	// metrics and tests.
	OnSessionEnd func(SessionEnd)
	// Experience is the cross-session prior-run store: sessions that
	// declare workload characteristics deposit their tuning traces and
	// warm-start from the closest prior session (§4.2). Nil selects an
	// in-memory expdb store (lost on restart); wire NewDurableStore over
	// an expdb.Store opened on a data directory for state that survives
	// kill -9. Set it before Listen.
	Experience Store
	// ExperienceCompactAbove is the per-namespace experience count above
	// which the default in-memory store compacts (merge near-identical
	// workload classes, keep best records). 0 means
	// DefaultExperienceCompactAbove; negative disables compaction. Ignored
	// when Experience is set — that store carries its own expdb.Options.
	ExperienceCompactAbove int
	// ExperienceMergeDist is the squared-error radius within which two
	// workloads' characteristics count as one class during compaction
	// (0 = DefaultExperienceMergeDist).
	ExperienceMergeDist float64
	// ExperienceKeepRecords is how many best measurements each experience
	// keeps through compaction (0 = DefaultExperienceKeepRecords).
	ExperienceKeepRecords int
	// EvalCache selects the measure-once evaluation cache scope: CacheOff
	// (the default) keeps the historical behaviour, CacheSession gives each
	// session a private cache warm-filled from the experience store, and
	// CacheShared additionally coalesces duplicate measurements across the
	// live sessions of one (app, spec) namespace. Exact-only caching is
	// trajectory-preserving for deterministic objectives. Set before Listen.
	EvalCache CacheScope
	// EstimateGate enables the §4.3 estimation-gated short-circuit on top
	// of the exact-hit memo: probes whose k-NN support is close and tight
	// are answered from the triangulation plane fit instead of a client
	// round-trip. Gated answers steer the search (they are committed like
	// measurements but flagged Estimated and excluded from experience
	// deposits), so the gate is opt-in. Ignored when EvalCache is CacheOff.
	EstimateGate bool
	// GateOptions tune the estimation gate; zero values select the
	// conservative defaults (see evalcache.GateOptions).
	GateOptions evalcache.GateOptions
	// CacheMetrics, when set, receives the harmony_eval_cache_* counter
	// family (hits, misses, coalesced, estimated, saved seconds, size).
	// Build it with evalcache.NewMetrics(registry); nil disables.
	CacheMetrics *evalcache.Metrics
	// MaxMuxSessions caps how many sessions one multiplexed (v4-mux)
	// connection may host concurrently. 0 means DefaultMaxMuxSessions;
	// negative refuses mux negotiation entirely (the register is answered
	// with a protocol error). Set it before Listen.
	MaxMuxSessions int
	// ConnShards is the live-connection table stripe count (0 =
	// DefaultConnShards; rounded up to a power of two). Every connect,
	// disconnect and hot-path counter update touches only its own stripe,
	// so thousands of concurrent short sessions never serialize on one
	// lock. Set it before Listen.
	ConnShards int
	// SessionHistory is how many finished sessions the state registry
	// retains for the control plane's session browser (0 =
	// DefaultSessionHistory; negative disables retention). Running
	// sessions are always visible.
	SessionHistory int
	// SearchKernel selects the per-session tuning kernel: "" or "simplex"
	// (the historical Nelder–Mead loop, trajectory-pinned) or "hyperband"
	// (multi-fidelity successive halving over reduced-fidelity probes,
	// seeded by the experience prior, with the same simplex as its
	// full-fidelity polish). Hyperband sessions ask clients for cheap
	// partial measurements via the config message's fidelity field;
	// clients that predate the field simply measure in full. Set it
	// before Listen.
	SearchKernel string
	// DriftDetect enables in-session workload drift detection (§4.2
	// extended to continuous tuning): sessions that registered workload
	// characteristics maintain an EWMA of the characteristics their reports
	// carry (Client.SetObserved) and, when the live vector leaves the
	// matched centroid for a full hysteresis window, deposit the finished
	// phase's trace as its own experience, flush the estimation gate's
	// geometric history, re-match the classifier against the live vector
	// and fund a warm in-session re-tune from the incumbent best — instead
	// of converging on a configuration tuned for traffic that no longer
	// exists. Stationary workloads are unaffected: the detector never
	// trips, no drift events are emitted, and trajectories are identical
	// to detection being off. Note the gate-flush scope: the estimation
	// gate is shared by every session in one (app, spec) namespace, and
	// drift detection assumes those sessions observe the same live
	// application — one session's drift flushes the shared gate (and its
	// open calibration window) for all of them. Concurrent sessions of one
	// key tuning *independent* application instances with different traffic
	// should not enable drift detection on a shared namespace. Set it
	// before Listen.
	DriftDetect bool
	// DriftOptions tune the detector (thresholds, EWMA weight, hysteresis
	// window); zero values select the drift package defaults.
	DriftOptions drift.Options

	lnMu      sync.Mutex
	listener  net.Listener
	tableOnce sync.Once
	connTab   *connTable
	wg        sync.WaitGroup

	// stateMu guards the session-state registry (running map + finished
	// ring). Hot-path updates never take it: each session writes through
	// its own sessionState.
	stateMu  sync.RWMutex
	states   map[string]*sessionState
	doneRing []*sessionState
	doneNext int

	// acceptStalled is the unix-nano timestamp of the first Accept failure
	// of the current retry streak (0 while accepts succeed) — the
	// accept-loop liveness input for /healthz.
	acceptStalled atomic.Int64

	// expOnce guards the lazy default construction of Experience.
	expOnce sync.Once

	// cacheMu guards caches, the shared-scope per-namespace registry.
	cacheMu sync.Mutex
	caches  map[string]*namespaceCache
}

// Defaults for the compaction knobs of the default experience store: the
// expdb defaults, so in-memory and durable stores bound their state
// identically out of the box.
const (
	DefaultExperienceCompactAbove = expdb.DefaultCompactAbove
	DefaultExperienceMergeDist    = expdb.DefaultMergeDist
	DefaultExperienceKeepRecords  = expdb.DefaultKeepRecords
)

// DefaultMaxWindow is the pipeline depth cap applied when Server.MaxWindow
// is zero. It bounds both the per-session outstanding-configuration count
// and the kernel's concurrent measurement fan-out.
const DefaultMaxWindow = 32

// maxWindow resolves the server's pipeline cap.
func (s *Server) maxWindow() int {
	switch {
	case s.MaxWindow == 0:
		return DefaultMaxWindow
	case s.MaxWindow < 1:
		return 1
	}
	return s.MaxWindow
}

// Search kernel names for Server.SearchKernel and the -search flag.
const (
	// KernelSimplex is the historical Nelder–Mead kernel (the default).
	KernelSimplex = "simplex"
	// KernelHyperband is the multi-fidelity successive-halving kernel.
	KernelHyperband = "hyperband"
)

// ParseSearchKernel validates the -search flag values.
func ParseSearchKernel(v string) (string, error) {
	switch v {
	case "", KernelSimplex:
		return KernelSimplex, nil
	case KernelHyperband:
		return KernelHyperband, nil
	}
	return "", fmt.Errorf("server: unknown search kernel %q (want simplex or hyperband)", v)
}

// kernelSeed derives the hyperband sampling seed from the session's
// namespace key and declared workload — not from the random session ID —
// so identical registrations draw identical candidates: the trajectory is
// reproducible across reconnects and independent of the wire framing.
func kernelSeed(key string, chars []float64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key)) //nolint:errcheck // fnv never fails
	var b [8]byte
	for _, c := range chars {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(c))
		h.Write(b[:]) //nolint:errcheck
	}
	return h.Sum64()
}

// store resolves the experience backend, building the default in-memory
// expdb store (with the server's compaction knobs) on first use.
func (s *Server) store() Store {
	s.expOnce.Do(func() {
		if s.Experience != nil {
			return
		}
		// Without a directory Open touches no file and cannot fail.
		db, _ := expdb.Open(expdb.Options{
			CompactAbove: s.ExperienceCompactAbove,
			MergeDist:    s.ExperienceMergeDist,
			KeepRecords:  s.ExperienceKeepRecords,
		})
		s.Experience = NewDurableStore(db, s.Logger)
	})
	return s.Experience
}

// ExperienceStore exposes the resolved experience backend (building the
// default in-memory store on first use) — the control plane's browse and
// prune surface.
func (s *Server) ExperienceStore() Store { return s.store() }

// SessionEnd summarizes one finished connection for the OnSessionEnd hook.
type SessionEnd struct {
	// ID is the server-assigned session/trace identifier — the same ID
	// stamped on the session's log records and tracer events.
	ID string
	// App is the application name from the registration ("" before one).
	App string
	// Warm reports whether prior experience seeded the session.
	Warm bool
	// Completed reports whether the kernel delivered a final best to the
	// client.
	Completed bool
	// Deposited reports whether a trace — possibly partial, on abnormal
	// disconnect — entered the experience store.
	Deposited bool
	// Faults counts tolerated per-session faults (garbage lines,
	// non-finite reports).
	Faults int
	// Err is the terminal error, nil for a clean quit or best delivery.
	Err error
}

// DefaultMaxEvalsCap is the per-session budget cap applied when
// Server.MaxEvalsCap is not positive.
const DefaultMaxEvalsCap = 10_000

// NewServer returns a server with defaults.
func NewServer() *Server {
	return &Server{MaxEvalsCap: DefaultMaxEvalsCap}
}

// tab resolves the sharded live-connection table, building it on first use
// so ConnShards set before Listen takes effect.
func (s *Server) tab() *connTable {
	s.tableOnce.Do(func() { s.connTab = newConnTable(s.ConnShards) })
	return s.connTab
}

// logger resolves the server's structured logger: Logger when set, a
// discard logger otherwise.
func (s *Server) logger() *slog.Logger {
	if s.Logger != nil {
		return s.Logger
	}
	return obs.Nop()
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. Serving happens on background goroutines until
// Close or Shutdown.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.lnMu.Lock()
	if s.tab().Closed() {
		s.lnMu.Unlock()
		ln.Close()
		return nil, errors.New("server: already closed")
	}
	s.listener = ln
	s.lnMu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

// acceptLoop accepts connections until the listener is closed. Transient
// Accept errors — EMFILE/ENFILE under descriptor pressure, ECONNABORTED,
// or anything else that is not the listener going away — are retried with
// capped exponential backoff instead of silently killing the loop: a
// server that stops accepting but still answers /healthz is the worst kind
// of down. Only net.ErrClosed (Close/Shutdown closed the listener) ends
// the loop.
func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return // listener closed: the one legitimate exit
			}
			s.acceptStalled.CompareAndSwap(0, time.Now().UnixNano())
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			s.m().AcceptRetries.Inc()
			s.logger().Warn("accept failed; retrying", "err", err, "backoff", backoff)
			time.Sleep(backoff)
			// Shutdown may have closed the listener while we slept; the
			// next Accept returns net.ErrClosed and exits cleanly.
			continue
		}
		backoff = 0
		s.acceptStalled.Store(0)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			// Every session logs its own end (structured, with session
			// ID) and reports it through OnSessionEnd.
			s.handle(conn)
		}()
	}
}

// Shutdown gracefully stops the server: it stops accepting connections,
// lets in-flight sessions drain, and — if ctx expires first — severs the
// remaining connections (the hard cutoff). Sessions cut off mid-tuning
// still deposit their partial traces into the experience store. Shutdown
// returns nil when everything drained in time and ctx.Err() after a cutoff.
func (s *Server) Shutdown(ctx context.Context) error {
	start := time.Now()
	s.tab().MarkClosed()
	s.lnMu.Lock()
	ln := s.listener
	s.lnMu.Unlock()
	if ln != nil {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		drain := time.Since(start)
		s.m().DrainSeconds.Observe(drain.Seconds())
		s.flushExperience()
		s.logger().Info("shutdown: all sessions drained", "drain", drain)
		return nil
	case <-ctx.Done():
	}
	// Hard cutoff: sever every remaining connection. Handlers unwind,
	// deposit their sessions' partial traces, and the wait completes.
	severed := s.tab().Close()
	<-done
	drain := time.Since(start)
	s.m().SessionsSevered.Add(severed)
	s.m().DrainSeconds.Observe(drain.Seconds())
	// Severed sessions deposited partial traces while unwinding; make
	// those durable before reporting the shutdown done.
	s.flushExperience()
	if severed > 0 {
		s.logger().Warn("shutdown: hard cutoff severed connections",
			"severed", severed, "drain", drain)
	}
	return ctx.Err()
}

// flushExperience pushes every deposited trace to stable storage on the
// shutdown drain path — the last act before the process exits.
func (s *Server) flushExperience() {
	if err := s.store().Flush(); err != nil {
		s.logger().Error("experience store flush failed", "err", err)
	}
}

// AcceptLiveness is the accept path's /healthz check: nil while the
// listener is bound and accepting. It reports shutdown, a never-bound
// listener, and an accept loop that has been failing (EMFILE pressure and
// the like) for more than a few seconds — the "up but not accepting" state
// that is otherwise invisible from outside.
func (s *Server) AcceptLiveness() error {
	if s.tab().Closed() {
		return errors.New("server: shutting down")
	}
	s.lnMu.Lock()
	bound := s.listener != nil
	s.lnMu.Unlock()
	if !bound {
		return errors.New("server: listener not bound")
	}
	if t := s.acceptStalled.Load(); t != 0 {
		if stall := time.Since(time.Unix(0, t)); stall > 5*time.Second {
			return fmt.Errorf("server: accept loop failing for %s", stall.Round(time.Second))
		}
	}
	return nil
}

// Close stops the server immediately: no drain, connections are severed and
// in-flight sessions unwind (depositing partial traces) before Close
// returns.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: Shutdown goes straight to the hard cutoff
	if err := s.Shutdown(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

// session is one tuning session, whatever its framing: the bookkeeping its
// lifecycle carries from openSession to endSession, and the search kernel
// its message loop drives on the session's own goroutine.
type session struct {
	id  string
	log *slog.Logger
	// end accumulates the session's outcome; endSession completes and
	// publishes it.
	end SessionEnd
	// state is the session's control-plane twin (never nil): the trace
	// stream and the message loop keep it current, the API snapshots it.
	state *sessionState

	names []string
	dir   search.Direction
	// penalty is the worst-case performance used to score failed
	// evaluations (search.FailurePenalty for the session's direction).
	penalty float64
	// toWire maps a kernel-space configuration (normalized coordinates for
	// restricted specs) to the client-facing parameter values.
	toWire func(search.Config) ([]int, error)
	// window is the granted pipeline depth: 1 is the lockstep v1 exchange,
	// >1 the pipelined v2 exchange with up to window outstanding
	// configurations, as many as one kernel step asks for at once.
	window int
	warm   bool // a prior experience seeded this session

	kernel search.Kernel     // nil until registration succeeds
	ev     *search.Evaluator // the kernel's commit point
	// store and key address the session's experience namespace.
	// depositedThrough and depositChars are the per-phase deposit cursor:
	// each drift boundary deposits the segment since the previous one under
	// the finished phase's workload vector, and the final (or partial)
	// deposit covers the tail. A session that never drifts deposits its
	// whole trace under the registered characteristics.
	store            Store
	key              string
	depositedThrough int
	depositChars     []float64
	concluded        bool // the kernel finished or failed (see conclude)
	deposited        bool
	// detector is the session's workload-drift detector, nil unless the
	// server enables detection and the registration carried
	// characteristics. Reports feed it; the kernel's ExtraRestart poll
	// rebases it.
	detector *drift.Detector
	// tracer is the session's stamped trace stream (set at registration),
	// kept here so the message loop can emit drift events onto the same
	// demultiplexable stream the kernel uses.
	tracer search.Tracer
	// driftPending hands a detector trip from the message loop to the
	// kernel's next ExtraRestart poll.
	driftPending bool
}

// noteChars folds one report's observed workload characteristics into the
// session's drift detector. Called from the message loop; a session
// without a detector (detection off, or no characteristics registered)
// ignores them.
func (sess *session) noteChars(chars []float64) {
	if sess.detector == nil || len(chars) == 0 {
		return
	}
	dist, fired := sess.detector.Observe(chars)
	sess.state.setDriftDistance(dist)
	if fired {
		sess.driftPending = true
		st := sess.detector.Status()
		sess.tracer.Emit(search.Event{
			Time: time.Now(), Type: search.EventDrift,
			Op: "detect", Iter: st.Drifts, Dist: dist,
			Note: "live workload left the matched centroid",
		})
	}
}

// ask and tell step the kernel (see settle).
func (sess *session) ask() (id int, cfg search.Config, fidelity float64, ok bool, err error) {
	defer sess.recoverKernel(&err)
	id, cfg, fidelity, ok = sess.kernel.Ask()
	return id, cfg, fidelity, ok, sess.settle()
}

func (sess *session) tell(id int, perf float64) (err error) {
	defer sess.recoverKernel(&err)
	sess.kernel.Tell(id, perf)
	return sess.settle()
}

// recoverKernel turns a kernel panic into this session's error alone.
func (sess *session) recoverKernel(err *error) {
	if rec := recover(); rec != nil {
		*err = fmt.Errorf("server: kernel panic: %v", rec)
		sess.conclude(nil)
	}
}

// settle checks the kernel after a step: a failed search is the session's
// error, a finished one concludes the session's search.
func (sess *session) settle() error {
	res, err := sess.kernel.Result()
	if res != nil || err != nil {
		sess.conclude(res)
	}
	return err
}

// conclude ends the kernel's part of the session, once. A finished search
// (res non-nil) deposits the trace past the drift cursor for future
// sessions — Measured() only, so neither gate estimates nor low-fidelity
// triage enter the prior-run store. The re-tune window closes, accounting
// for a request the race let in.
func (sess *session) conclude(res *search.Result) {
	if sess.concluded {
		return
	}
	sess.concluded = true
	if res != nil {
		sess.deposited = sess.store.Record(sess.key, sess.depositChars, sess.dir, res.Trace[sess.depositedThrough:].Measured())
	}
	if sess.state.closeRetunes() {
		sess.log.Warn("re-tune request arrived after the kernel's final poll; dropped", "app", sess.end.App)
	}
}

// errClosedBeforeRegister ends a connection that went away before its
// register envelope arrived.
var errClosedBeforeRegister = errors.New("server: client closed before registering")

// handle runs one accepted connection: it opens the connection's session
// and serves it.
func (s *Server) handle(conn net.Conn) {
	token, ok := s.tab().Track(conn)
	if !ok {
		conn.Close()
		return
	}
	defer s.tab().Untrack(token)
	defer conn.Close()

	// The connection token names the transport in session snapshots, so the
	// control plane can group the sessions of one mux connection. It doubles
	// as the metric stripe: hot-path counters land on the same shard the
	// session table uses.
	connID := fmt.Sprintf("conn-%d", token)
	sess := s.openSession(conn.RemoteAddr().String(), connID)
	sess.log.Debug("session started")
	s.serve(conn, sess, int(token), connID)
}

// openSession is the first step of every session's lifecycle: count it,
// give it an ID, a logger and a control-plane state twin. Every opened
// session is closed by exactly one endSession.
func (s *Server) openSession(remote, connID string) *session {
	id := obs.NewID()
	m := s.m()
	m.SessionsStarted.Inc()
	m.SessionsActive.Inc()
	return &session{
		id:    id,
		log:   s.logger().With("session", id, "remote", remote, "conn", connID),
		end:   SessionEnd{ID: id},
		state: s.trackState(id, remote, connID),
	}
}

// register starts the session's kernel from its register envelope and
// records the registration. A failed registration is answered with a
// protocol error, which is returned.
func (s *Server) register(sess *session, reg message, lo loop) error {
	sess.end.App = reg.App
	if err := s.startSession(sess, reg); err != nil {
		return lo.fail(err.Error())
	}
	if sess.warm {
		s.m().WarmStarts.Inc()
	}
	st := sess.state
	st.mu.Lock()
	st.snap.Proto = lo.proto
	st.snap.FailureBudget = lo.budget
	st.snap.Mux = lo.token != 0
	st.mu.Unlock()
	args := []any{"app", reg.App, "dim", len(sess.names), "warm", sess.warm,
		"improved", reg.Improved, "max_evals", reg.MaxEvals, "window", sess.window}
	if lo.token != 0 {
		args = append(args, "mux_token", lo.token)
	}
	sess.log.Info("session registered", args...)
	return nil
}

// endSession is the last step of every session's lifecycle: an unfinished
// kernel is aborted and its partial trace deposited, then the end is
// reported to the metrics bundle, the structured logger, the state
// registry and the OnSessionEnd hook.
func (s *Server) endSession(sess *session, err error) {
	end := &sess.end
	if sess.kernel != nil {
		// Measurements led here and never reported are abandoned, so peers
		// following them claim them anew; an open batch first commits the
		// values it obtained.
		sess.ev.Abort()
		if !sess.concluded {
			// Deposit whatever was measured, so the experience survives for
			// future sessions (§4.2) — and say so: a silently dropped (or
			// silently kept) partial trace is invisible to operators
			// otherwise. Only the tail past the drift cursor goes in,
			// without gate estimates.
			tr := sess.ev.Trace()
			sess.deposited = sess.store.Record(sess.key, sess.depositChars, sess.dir, tr[sess.depositedThrough:].Measured())
			if sess.deposited {
				s.m().PartialDeposits.Inc()
			}
			sess.log.Warn("abnormal disconnect: partial trace",
				"trace_len", len(tr), "deposited", sess.deposited, "app", end.App)
			sess.conclude(nil)
		}
		end.Warm = sess.warm
		end.Deposited = sess.deposited
	}
	end.Err = err

	m := s.m()
	if end.Completed {
		m.SessionsCompleted.Inc()
	}
	if end.Deposited {
		m.Deposits.Inc()
	}
	if err != nil {
		m.SessionFailures.Inc()
		sess.log.Warn("session failed",
			"app", end.App, "warm", end.Warm, "completed", end.Completed,
			"deposited", end.Deposited, "faults", end.Faults, "err", err)
	} else {
		sess.log.Info("session ended",
			"app", end.App, "warm", end.Warm, "completed", end.Completed,
			"deposited", end.Deposited, "faults", end.Faults)
	}
	s.finishState(sess.state, *end)
	if s.OnSessionEnd != nil {
		s.OnSessionEnd(*end)
	}
	m.SessionsActive.Dec()
}

// loop is one session's view of its wire: the transport, the framing and
// the failure-budget helpers the message loop uses.
type loop struct {
	s    *Server
	sess *session
	tr   transport
	// proto is the negotiated framing generation: 2 for the JSON line
	// protocol (v1/v2 share it; the registered window picks the exchange),
	// 3 for binary frames.
	proto int
	// shard is the metric stripe for the hot-path counters.
	shard  int
	budget int
	// token is the session's v4-mux token (0 on a plain connection); in
	// and term are a mux session's inbox and its terminal condition (term
	// is valid once in is closed).
	token uint64
	in    chan muxItem
	term  *error
}

// acks reports whether this framing acknowledges reports and quits. v3
// does not: as in the pipelined v2 exchange, the next config is the flow
// control.
func (lo loop) acks() bool { return lo.proto < 3 }

// fail is the protocol rejection: count it, tell the client, and return
// the terminal error.
func (lo loop) fail(msg string) error {
	lo.s.m().ProtocolErrors.Inc()
	lo.tr.send(message{Op: "error", Msg: msg}) //nolint:errcheck
	return errors.New(msg)
}

// tolerate charges one fault against the session's failure budget. Every
// charge is observable (counter, warn log, typed budget event); the
// returned error is non-nil once the budget is exhausted.
func (lo loop) tolerate(what string) error {
	s, sess, end := lo.s, lo.sess, &lo.sess.end
	end.Faults++
	sess.state.faults.Store(int64(end.Faults))
	s.m().Faults.Inc()
	if s.Tracer != nil {
		s.Tracer.Emit(search.Event{
			Session: sess.id, Time: time.Now(), Type: search.EventBudget,
			Iter: end.Faults, Note: what,
		})
	}
	if end.Faults > lo.budget {
		return fmt.Errorf("failure budget exhausted (%d faults > %d): %s", end.Faults, lo.budget, what)
	}
	sess.log.Warn("tolerated fault", "fault", end.Faults, "budget", lo.budget, "what", what)
	return nil
}

// charge is tolerate for the message loop: nil while the budget lasts, the
// session's terminal protocol error once it is spent.
func (lo loop) charge(what string) error {
	if err := lo.tolerate(what); err != nil {
		return lo.fail(err.Error())
	}
	return nil
}

// oversizedMsg is the classification for a wire unit (JSON line or v3
// frame length claim) over the 1 MiB cap — sent to the client, charged to
// the failure budget, and counted, instead of silently aborting the
// session.
const oversizedMsg = "wire line exceeds the 1 MiB frame cap"

// recvEnd classifies a terminal recv error. A clean EOF stays nil (a
// client vanishing between exchanges is not a protocol error); an
// oversized line or frame claim gets a protocol reply, a failure-budget
// charge and a metric before killing the session; a connection dying
// mid-frame is reported as such.
func (s *Server) recvEnd(err error, lo loop) error {
	switch {
	case err == nil, errors.Is(err, io.EOF):
		return nil
	case errors.Is(err, errFrameTooBig):
		s.m().OversizedLines.Inc()
		lo.tolerate(oversizedMsg) //nolint:errcheck // terminal either way
		return lo.fail(oversizedMsg)
	case errors.Is(err, io.ErrUnexpectedEOF):
		return fmt.Errorf("server: connection died mid-frame")
	}
	return err
}

// errBadPreamble rejects a connection whose first bytes are neither a JSON
// line nor the v3 magic.
var errBadPreamble = errors.New("server: unrecognized wire preamble (want a JSON line or the v3 magic)")

// negotiate sniffs the connection's first byte to pick the framing: '{'
// (any JSON line) selects the v1/v2 line protocol, the 0x00-led magic
// selects binary v3. Nothing is consumed on the JSON path, so the line
// scanner sees the stream from its first byte.
func negotiate(br *bufio.Reader, w *bufio.Writer, beforeRead, beforeWrite func()) (transport, int, error) {
	if beforeRead != nil {
		beforeRead()
	}
	first, err := br.Peek(1)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			err = errClosedBeforeRegister
		}
		return nil, 0, err
	}
	if first[0] != v3Magic[0] {
		return newJSONWire(br, w, beforeRead, beforeWrite), 2, nil
	}
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, 0, errClosedBeforeRegister
	}
	if magic != v3Magic {
		return nil, 0, errBadPreamble
	}
	return newBinWire(br, w, beforeRead, beforeWrite), 3, nil
}

// failureBudget resolves the server's per-session fault tolerance.
func (s *Server) failureBudget() int {
	switch {
	case s.FailureBudget == 0:
		return 3
	case s.FailureBudget < 0:
		return 0
	}
	return s.FailureBudget
}

// serve negotiates the connection's framing, reads its register envelope
// and runs the session to its end — or, when the envelope negotiates
// v4-mux, hands the connection to serveMux, which runs sess as its token-1
// session.
func (s *Server) serve(conn net.Conn, sess *session, shard int, connID string) {
	// 16 KiB holds any hot-path unit with room to spare (frames and lines
	// are tens of bytes; only register envelopes run longer) and keeps the
	// per-connection footprint small at thousand-session scale.
	br := bufio.NewReaderSize(conn, 16*1024)
	w := bufio.NewWriter(conn)
	beforeRead := func() {
		if s.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.IdleTimeout))
		}
	}
	beforeWrite := func() {
		if s.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
		}
	}

	tr, proto, err := negotiate(br, w, beforeRead, beforeWrite)
	if errors.Is(err, errBadPreamble) {
		s.m().ProtocolErrors.Inc()
		// The peer speaks neither framing; answer in JSON, the lingua
		// franca every generation understands, before hanging up.
		newJSONWire(nil, w, nil, beforeWrite).send(message{Op: "error", Msg: err.Error()}) //nolint:errcheck
	}
	if err != nil {
		s.endSession(sess, err)
		return
	}
	lo := loop{s: s, sess: sess, tr: tr, proto: proto, shard: shard, budget: s.failureBudget()}

	// First message must register. Faults before a session exists are not
	// worth tolerating — there is no state to protect yet.
	reg, err := tr.recv()
	if err != nil {
		var g *garbageError
		if errors.As(err, &g) {
			err = lo.fail(g.Error())
		} else if err = s.recvEnd(err, lo); err == nil {
			err = errClosedBeforeRegister
		}
	} else if reg.Op != "register" {
		err = lo.fail("first message must be register")
	} else if reg.Mux {
		// The v4-mux negotiation: legal only as a v3 connection's first
		// envelope. From here the connection hosts many sessions, this one
		// as token 1.
		bw, ok := tr.(*binWire)
		switch {
		case !ok:
			err = lo.fail("mux negotiation requires the v3 binary framing")
		case s.MaxMuxSessions < 0:
			err = lo.fail("server refuses multiplexed connections")
		default:
			if err := s.serveMux(bw, reg, sess, shard, connID, conn.RemoteAddr().String()); err != nil {
				sess.log.Warn("mux connection ended", "err", err)
			} else {
				sess.log.Debug("mux connection ended")
			}
			return
		}
	}
	if err == nil {
		err = s.register(sess, reg, lo)
	}
	if err == nil {
		err = s.serveSession(sess, lo)
	}
	s.endSession(sess, err)
}

// serveSession is the message loop every registered session runs, on every
// framing. It answers the registration, then asks the kernel for
// configurations against the client's fetch credits and tells it the
// reports, until the final best goes out, the client quits or the session
// fails. The kernel runs on this goroutine; a point a peer session is
// already measuring is one more select arm (Evaluator.Wait).
//
// A window-1 session is the protocol v1 lockstep exchange: one fetch, one
// config, one report, strictly alternating. It reads inline on this
// goroutine — from the socket, or from its mux inbox — because with no
// fetch to answer there is nothing to wait on but the client, and a hop
// through a reader goroutine costs more than the exchange itself. Its JSON
// exchanges are byte-identical to prior releases: reports are acked,
// configs and reports carry no ids, a fetch while a report is pending
// scores the lost point with the penalty, and a report with nothing pending
// is fatal. On the JSON framing a report's ok is held while the client's
// next line is already buffered, so a coalesced report+fetch is answered
// in one write. Over v3 framing no report or quit is acked (lo.acks()):
// the next config is the flow control.
//
// A window > 1 session is the protocol v2 pipelined exchange: up to window
// outstanding configurations, fetches are credits the client may
// pipeline, and reports arrive out of order keyed by correlation id. The
// loop selects on one inbound channel — a mux session's inbox, or on a
// plain connection a reader goroutine's feed — so a fetch that cannot be
// answered yet (the kernel waits on outstanding reports) never blocks
// report processing.
func (s *Server) serveSession(sess *session, lo loop) error {
	lockstep := sess.window == 1
	reply := message{Op: "registered", Names: sess.names, Warm: sess.warm}
	if !lockstep {
		// Only v2 sessions see v2 fields: a v1 registration (no window)
		// gets the byte-identical v1 reply.
		reply.Window = sess.window
	}
	if err := lo.tr.send(reply); err != nil {
		return err
	}
	// jw is set on a lockstep JSON session, the one exchange that acks
	// reports: it holds each ok while the client's next line is already
	// buffered (jsonWire.hold), so the ok leaves with that line's reply.
	// Held output never waits on anything but that wire's own recv.
	var jw *jsonWire
	if lockstep && lo.acks() {
		jw = lo.tr.(*jsonWire) // the acking framing is the JSON one
		defer jw.flush()       //nolint:errcheck // the session is over either way
	}
	var in chan muxItem
	var term *error
	if !lockstep {
		in, term = lo.in, lo.term
		if in == nil {
			in, term = make(chan muxItem), new(error)
			stop := make(chan struct{})
			defer close(stop)
			go pump(lo.tr, in, term, stop)
		}
	}

	m := s.m()
	// out holds the configurations awaiting reports: wire id (0 at window
	// 1) and kernel id. A value array, not a map: it stays on the stack at
	// small windows.
	type flight struct{ id, kid int }
	var buf [4]flight
	out := buf[:0]
	credits := 0 // fetches received and not yet answered
	nextID := 0
	defer func() {
		// A session dying with configurations in flight must not leak
		// pipeline depth on the gauge.
		for range out {
			m.SessionOutstanding.Dec()
		}
	}()
	// retire takes out[i] off the wire and tells the kernel its score.
	retire := func(i int, perf float64) error {
		kid := out[i].kid
		out[i] = out[len(out)-1]
		out = out[:len(out)-1]
		sess.state.outstanding.Store(int64(len(out)))
		m.SessionOutstanding.Dec()
		return sess.tell(kid, perf)
	}
	for {
		// Answer every fetch credit the kernel can answer now.
		for credits > 0 && len(out) < sess.window {
			kid, kcfg, fid, ok, err := sess.ask()
			if err != nil {
				return lo.fail(err.Error())
			}
			if !ok {
				break
			}
			values, err := sess.toWire(kcfg)
			if err != nil {
				return lo.fail(err.Error())
			}
			credits--
			cfg := message{Op: "config", Values: values, Fidelity: fid}
			if !lockstep {
				cfg.id, cfg.hasID = nextID, true
				nextID++
			}
			out = append(out, flight{cfg.id, kid})
			sess.state.outstanding.Store(int64(len(out)))
			m.ConfigsServed.Inc(lo.shard)
			m.SessionOutstanding.Inc()
			m.BatchSize.Observe(float64(len(out)))
			if err := lo.tr.send(cfg); err != nil {
				return err
			}
		}
		// The final best answers a credit; the kernel finishes only after
		// every outstanding report, so best never overtakes one.
		if res, _ := sess.kernel.Result(); res != nil && credits > 0 {
			best := message{Op: "best", Evals: res.Evals, Perf: res.BestPerf}
			if len(res.BestConfig) > 0 {
				values, err := sess.toWire(res.BestConfig)
				if err != nil {
					return lo.fail(err.Error())
				}
				best.Values = values
			}
			err := lo.tr.send(best)
			if err == nil {
				sess.end.Completed = true
			}
			return err
		}

		var it muxItem
		if lockstep && credits == 0 {
			msg, err := lo.tr.recv()
			if err != nil {
				var g *garbageError
				if !errors.As(err, &g) {
					return s.recvEnd(err, lo)
				}
				it.err = g
			}
			it.m = msg
		} else {
			// A credit the kernel could not answer waits on a peer's flight
			// (a lockstep session's, with in nil, on that alone).
			var wait <-chan struct{}
			if credits > 0 && len(out) < sess.window {
				wait = sess.ev.Wait()
			}
			if in == nil && wait == nil {
				return lo.fail("server: kernel stalled with nothing to measure")
			}
			if jw != nil {
				if err := jw.flush(); err != nil {
					return err
				}
			}
			var ok bool
			select {
			case it, ok = <-in:
				if !ok {
					return s.recvEnd(*term, lo)
				}
			case <-wait:
				continue // the next ask picks the flight's result up
			}
		}

		if it.err != nil {
			// Garbage on the wire: skip the line or frame and charge the
			// budget instead of killing a session that may hold hours of
			// tuning progress.
			if err := lo.charge(it.err.Error()); err != nil {
				return err
			}
			continue
		}
		switch it.m.Op {
		case "fetch":
			if lockstep && len(out) > 0 {
				// The report never arrived (the measurement crashed, or the
				// report line was garbage and got skipped): mark the pending
				// point failed with the worst-case penalty so the simplex
				// moves on, charge one fault, and serve the fetch.
				if err := lo.charge("fetch while a report is pending — scoring the lost point as failed"); err != nil {
					return err
				}
				if err := retire(0, sess.penalty); err != nil {
					return lo.fail(err.Error())
				}
			}
			credits++
		case "report":
			i := 0
			switch {
			case lockstep:
				if len(out) == 0 {
					return lo.fail("report without a pending configuration")
				}
			case !it.m.hasID:
				if err := lo.charge("report without id in a pipelined session"); err != nil {
					return err
				}
				continue
			default:
				id := it.m.id
				if i = slices.IndexFunc(out, func(f flight) bool { return f.id == id }); i < 0 {
					if err := lo.charge(fmt.Sprintf("report for unknown id %d", it.m.id)); err != nil {
						return err
					}
					continue
				}
			}
			perf := it.m.Perf
			if search.IsFailure(perf, sess.dir) {
				// A non-finite (or absurd) report marks the point failed:
				// worst-case penalty, one fault charged.
				if err := lo.charge(fmt.Sprintf("non-finite performance report %v", perf)); err != nil {
					return err
				}
				perf = sess.penalty
			} else {
				perf = search.Sanitize(perf, sess.dir)
			}
			m.ReportsReceived.Inc(lo.shard)
			sess.noteChars(it.m.Characteristics)
			if err := retire(i, perf); err != nil {
				return lo.fail(err.Error())
			}
			if jw != nil {
				if err := jw.hold(message{Op: "ok"}); err != nil {
					return err
				}
			}
		case "quit":
			if lo.acks() {
				lo.tr.send(message{Op: "ok"}) //nolint:errcheck // closing anyway
			}
			return nil
		default:
			return lo.fail(fmt.Sprintf("unknown op %q", it.m.Op))
		}
	}
}

// pump is a plain connection's reader goroutine for a window > 1 session:
// it feeds decoded messages (and tolerable garbage) into in until the
// transport's terminal condition, which it stores in *term before closing
// in. It stops early when stop closes.
func pump(tr transport, in chan<- muxItem, term *error, stop <-chan struct{}) {
	for {
		msg, err := tr.recv()
		it := muxItem{m: msg}
		if err != nil {
			var g *garbageError
			if !errors.As(err, &g) {
				*term = err
				close(in)
				return
			}
			it.err = g
		}
		select {
		case in <- it:
		case <-stop:
			return
		}
	}
}

// startSession parses the registration, builds the session's search space
// (using the Appendix B adapter for restricted specs) and its kernel.
func (s *Server) startSession(sess *session, reg message) error {
	st, log := sess.state, sess.log
	spec, err := rsl.Parse(reg.RSL)
	if err != nil {
		return err
	}
	dir := search.Maximize
	switch reg.Direction {
	case "", "max":
	case "min":
		dir = search.Minimize
	default:
		return fmt.Errorf("server: unknown direction %q", reg.Direction)
	}
	maxCap := s.MaxEvalsCap
	if maxCap <= 0 {
		maxCap = DefaultMaxEvalsCap // the evaluator reads a budget of 0 as unlimited
	}
	maxEvals := reg.MaxEvals
	if maxEvals <= 0 || maxEvals > maxCap {
		maxEvals = maxCap
	}

	window := 1
	if reg.Window > 1 {
		window = reg.Window
		if cap := s.maxWindow(); window > cap {
			window = cap
		}
	}

	sess.names = spec.Names()
	sess.dir = dir
	sess.penalty = search.FailurePenalty(dir)
	sess.window = window

	var space *search.Space
	if spec.Restricted() {
		// Search normalized coordinates; decode before the client sees them.
		adapterSpace, _, err := spec.SearchAdapter(nil, 64)
		if err != nil {
			return err
		}
		space = adapterSpace
		g := float64(adapterSpace.Params[0].Max)
		sess.toWire = func(cfg search.Config) ([]int, error) {
			u := make([]float64, len(cfg))
			for i, v := range cfg {
				u[i] = float64(v) / g
			}
			dec, err := spec.Decode(u)
			if err != nil {
				return nil, fmt.Errorf("server: decode failed: %v", err)
			}
			return dec, nil
		}
	} else {
		space, err = spec.Static()
		if err != nil {
			return err
		}
		sess.toWire = func(cfg search.Config) ([]int, error) { return cfg, nil }
	}

	var init search.InitStrategy = search.ExtremeInit{}
	if reg.Improved {
		init = search.DistributedInit{}
	}
	// Warm-start from the closest prior session of the same application and
	// specification, when the client told us what workload it is serving.
	key := specKey(reg.App, spec)
	store := s.store()
	sess.store, sess.key, sess.depositChars = store, key, reg.Characteristics
	// priorCfgs doubles as the multi-fidelity sampling prior: the same
	// best-of-experience configurations that seed the simplex center the
	// hyperband kernel's candidate distribution.
	var priorCfgs []search.Config
	// matchedRef is the centroid the drift detector measures against: the
	// matched experience's characteristics when one exists, the registered
	// vector otherwise.
	matchedRef := reg.Characteristics
	if len(reg.Characteristics) > 0 {
		if exp, ok := store.Match(key, reg.Characteristics); ok {
			priorCfgs = configsFromExperience(exp, space)
			matchedRef = exp.Characteristics
			if len(priorCfgs) > 0 {
				init = search.SeededInit{Seeds: continuousSeeds(space, priorCfgs), Fallback: init}
				sess.warm = true
			}
		}
	}
	if s.DriftDetect && len(reg.Characteristics) > 0 {
		sess.detector = drift.New(matchedRef, s.DriftOptions)
	}

	// The session's state twin mirrors registration outcome and, through
	// the tracer fan-out below, every kernel event — the control plane's
	// read path.
	toWire := sess.toWire // not sess: the registry keeps finished states
	st.registered(reg.App, dir, space.Dim(), window, sess.warm, func(cfg search.Config) []int {
		values, _ := toWire(cfg)
		return values
	})

	// The session's client is the objective: the message loop measures
	// every point the kernel asks for. The state twin rides the same trace
	// stream as the configured sink, so the control plane sees exactly what
	// the JSONL trace records.
	ev := search.NewEvaluator(space, nil)
	ev.MaxEvals = maxEvals
	tracer := search.StampSession(search.MultiTracer(st, s.Tracer), sess.id)
	ev.Tracer = tracer
	sess.tracer = tracer
	sess.ev = ev
	// The measure-once layer: exact hits (this session, peers, prior runs)
	// and coalesced in-flight duplicates skip the client round-trip; the
	// optional estimation gate answers well-supported probes from the §4.3
	// plane fit. The layer keys by kernel-space configurations — the same
	// coordinates experiences are stored in — so warm fills and live
	// probes meet in one namespace.
	layer := s.evalLayer(key, space)
	if layer != nil {
		ev.External = layer
	}

	nmOpts := search.NelderMeadOptions{
		Init:      init,
		Direction: dir,
		MaxEvals:  maxEvals,
		// A pipelined session's kernel asks for up to window points per
		// step; window 1 is the sequential lockstep kernel.
		Parallel: window,
		Tracer:   tracer,
		// A pending workload drift or an operator's re-tune request
		// (control plane) funds one more reduced-scale restart at the
		// next convergence decision.
		ExtraRestart: st.takeRetune,
	}
	if det := sess.detector; det != nil {
		nmOpts.ExtraRestart = func() bool {
			if !sess.driftPending {
				return st.takeRetune()
			}
			sess.driftPending = false
			// Warm in-session re-tune at a drift boundary. First close out
			// the finished phase: its measurements become a prior-run
			// experience under the workload identity they were measured
			// on, so future sessions of that mix warm-start from them.
			tr := ev.Trace()
			if store.Record(key, sess.depositChars, dir, tr[sess.depositedThrough:].Measured()) {
				st.notePhaseDeposit()
				s.m().Deposits.Inc()
			}
			sess.depositedThrough = len(tr)
			// Exact memo entries are real measurements of real
			// configurations and stay valid (the objective is what changed,
			// and the memo is keyed per-configuration truth the client
			// re-reports anyway); the gate's plane fits are interpolations
			// of pre-drift truth and must go. The gate is shared
			// namespace-wide, so this flush acts for every peer session of
			// the key — DriftDetect documents the assumption that they all
			// observe the same live application.
			if layer != nil && layer.Gate != nil {
				layer.Gate.Flush()
			}
			// Re-match the classifier against the live vector: the new
			// phase may be one the server has seen before. Either way the
			// detector rebases — on the matched centroid, or on the live
			// vector itself — and re-arms for the next episode.
			live := det.Live()
			sess.depositChars = live
			ref, note := live, "no prior experience matched; tracking the live vector"
			if exp, ok := store.Match(key, live); ok {
				ref, note = exp.Characteristics, "re-matched a prior experience"
			}
			det.Rebase(ref)
			ds := det.Status()
			tracer.Emit(search.Event{
				Time: time.Now(), Type: search.EventDrift,
				Op: "rematch", Iter: ds.Drifts, Dist: ds.Dist, Note: note,
			})
			log.Info("workload drift: warm in-session re-tune",
				"app", reg.App, "drift", ds.Drifts, "dist", ds.Dist, "rematch", note)
			return true
		}
	}
	if s.SearchKernel == KernelHyperband {
		// Multi-fidelity triage over reduced-fidelity client measurements,
		// then the very same simplex options as the full-fidelity polish.
		// The experience configurations double as the sampling prior; a
		// cold namespace degrades to plain Hyperband over uniform
		// candidates.
		sess.kernel = mfsearch.New(space, ev, mfsearch.NewPrior(space, priorCfgs), mfsearch.Options{
			Direction: dir,
			Seed:      kernelSeed(key, reg.Characteristics),
			Polish:    nmOpts,
			Tracer:    tracer,
		})
	} else {
		sess.kernel = search.NewNelderMead(space, ev, nmOpts)
	}
	return nil
}

// ListenAndServe is a convenience for main functions: listen and block until
// the server is shut down. When no Logger is configured, it installs the
// obs default (structured text on stderr) — a daemon should never run
// blind.
func (s *Server) ListenAndServe(addr string) error {
	if s.Logger == nil {
		s.Logger = obs.Default() // before Listen: handlers read it unlocked
	}
	a, err := s.Listen(addr)
	if err != nil {
		return err
	}
	s.logger().Info("harmony server listening", "addr", a.String())
	s.wg.Wait()
	return nil
}
