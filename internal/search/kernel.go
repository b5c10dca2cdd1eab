package search

import "sync"

// Kernel is a search running as a resumable state machine: Ask hands out
// the next configuration that needs a real measurement, Tell reports it (in
// any order), and Result returns the outcome — (nil, nil) while the search
// runs. Nothing blocks and no goroutine runs behind the caller's back: a
// tuning server drives a kernel on the session's goroutine, Drive drives
// one in-process. The kernel's Evaluator is the single commit point: cache
// hits, External answers and gate estimates are committed inside Ask and
// Tell in probe order and under the budget cap. Ask's ok is false when the
// search finished, waits on Tells, or waits on a point a peer is measuring
// (see Evaluator.Wait).
type Kernel interface {
	Ask() (id int, cfg Config, fidelity float64, ok bool)
	Tell(id int, perf float64)
	Result() (*Result, error)
}

// Machine is the scaffold every kernel runs on: the evaluator it commits
// through, and the continuation that resumes the search once every
// measurement its current step needs has been told. Kernels are written in
// continuation-passing style over Probe and NelderMead.
type Machine struct {
	ev   *Evaluator
	next func()
	res  *Result
	err  error

	// The pending probe and batch: a step issues at most one of each, and
	// holding them here (with their steps bound once) keeps a kernel step
	// allocation-free.
	pcfg                Config
	pfid                float64
	ppf                 *prefetch
	pthen               func(Config, float64, error)
	pneed               *need
	bcfgs               []Config
	bperfs              []float64
	bpf                 *prefetch
	bthen               func([]float64, error)
	probeStep, needStep func()
	batchStep           func()
	batchProbed         func(Config, float64, error)
}

// NewMachine returns a machine over ev whose search begins with start.
func NewMachine(ev *Evaluator, start func()) *Machine {
	return &Machine{ev: ev, next: start}
}

// Ask implements Kernel.
func (m *Machine) Ask() (int, Config, float64, bool) {
	for {
		m.run()
		n, progressed := m.ev.claimNext()
		if n != nil {
			return n.id, n.cfg, n.fidelity, true
		}
		if !progressed {
			return 0, nil, 0, false
		}
	}
}

// Tell implements Kernel. An id that is not outstanding is ignored.
func (m *Machine) Tell(id int, perf float64) {
	if m.ev.tell(id, perf) {
		m.run()
	}
}

// Result implements Kernel.
func (m *Machine) Result() (*Result, error) { return m.res, m.err }

// Finish ends the search with its outcome.
func (m *Machine) Finish(res *Result, err error) { m.res, m.err, m.next = res, err, nil }

// run resumes the search for as long as no measurement is outstanding.
func (m *Machine) run() {
	for m.next != nil && m.ev.settled() {
		step := m.next
		m.next = nil
		step()
	}
}

// Probe evaluates cfg at fidelity (0 = full) with EvalConfigAt's commit
// semantics and continues with then once the value is known.
func (m *Machine) Probe(cfg Config, fidelity float64, then func(Config, float64, error)) {
	m.probe(cfg, fidelity, nil, then)
}

// probe is Probe against a prefetch round (nil for none). The evaluation
// runs as the next step, so it sees every value the round measured.
func (m *Machine) probe(cfg Config, fidelity float64, pf *prefetch, then func(Config, float64, error)) {
	if m.probeStep == nil {
		m.probeStep, m.needStep = m.stepProbe, m.stepNeed
	}
	m.pcfg, m.pfid, m.ppf, m.pthen = cfg, fidelity, pf, then
	m.next = m.probeStep
}

func (m *Machine) stepProbe() {
	perf, n, err := m.ev.probe(m.pcfg, m.pfid, m.ppf)
	switch {
	case err != nil:
		m.pthen(nil, 0, err)
	case n != nil:
		m.pneed, m.next = n, m.needStep
	default:
		m.pthen(m.pcfg, perf, nil)
	}
}

func (m *Machine) stepNeed() { m.pthen(m.pcfg, m.ev.commitNeed(m.pneed), nil) }

// batch evaluates the configurations nearest to pts in input order and
// continues with the committed prefix's values (valid until the next
// batch); err is ErrBudget when the budget truncated it. With workers > 1 a
// prefetch round first measures every not-yet-known point at once, so the
// batch costs one measurement latency while the commits replay the
// sequential path exactly.
func (m *Machine) batch(pts [][]float64, workers int, then func([]float64, error)) {
	if m.batchStep == nil {
		m.batchStep, m.batchProbed = m.stepBatch, m.probedBatch
	}
	m.bcfgs = m.bcfgs[:0]
	for _, pt := range pts {
		m.bcfgs = append(m.bcfgs, m.ev.Space.Snap(pt))
	}
	m.bperfs, m.bthen = m.bperfs[:0], then
	m.bpf = m.ev.prefetch(m.bcfgs, workers)
	m.ev.open = m.bpf
	m.next = m.batchStep
}

func (m *Machine) stepBatch() {
	m.ev.open = nil // the round resolved: commits are under way
	if len(m.bperfs) == len(m.bcfgs) {
		m.bthen(m.bperfs, nil)
		return
	}
	m.probe(m.bcfgs[len(m.bperfs)], 0, m.bpf, m.batchProbed)
}

func (m *Machine) probedBatch(_ Config, perf float64, err error) {
	if err != nil {
		m.bthen(m.bperfs, err)
		return
	}
	m.bperfs = append(m.bperfs, perf)
	m.stepBatch()
}

// Synchronized wraps an Objective with a mutex so a parallel Drive can use
// a measurement function that is not safe for concurrent use (one drawing
// from a shared noise source, say): correctness, not speed.
func Synchronized(obj Objective) Objective {
	var mu sync.Mutex
	return ObjectiveFunc(func(cfg Config) float64 {
		mu.Lock()
		defer mu.Unlock()
		return obj.Measure(cfg)
	})
}

// Drive runs k to completion against ev's Objective, in-process: each
// round asks for up to workers configurations, measures them on that many
// goroutines (inline when there is one; the Objective must then be safe
// for concurrent use) and tells the results in ask order. A point a peer
// evaluator is measuring is waited for. A
// panicking measurement unwinds the caller's goroutine, not the process:
// the rest of the step is still measured, Evaluator.Abort commits what the
// open batch measured cleanly, and the first panic in ask order re-raises.
func Drive(k Kernel, ev *Evaluator, workers int) (*Result, error) {
	workers = max(workers, 1)
	ids := make([]int, 0, workers)
	cfgs := make([]Config, 0, workers)
	fids := make([]float64, 0, workers)
	perfs := make([]float64, workers)
	panics := make([]any, workers)
	var failed any
	measure := func(i int) {
		defer func() { panics[i] = recover() }()
		perfs[i] = ev.rawMeasure(cfgs[i], fids[i])
	}
	for {
		ids, cfgs, fids = ids[:0], cfgs[:0], fids[:0]
		for len(ids) < workers {
			id, cfg, fid, ok := k.Ask()
			if !ok {
				break
			}
			ids, cfgs, fids = append(ids, id), append(cfgs, cfg), append(fids, fid)
		}
		switch w := ev.Wait(); {
		case len(ids) == 0 && w != nil:
			<-w
			continue
		case len(ids) == 0 && failed != nil:
			ev.Abort()
			panic(failed)
		case len(ids) == 0:
			return k.Result()
		case len(ids) == 1:
			measure(0)
		default:
			var wg sync.WaitGroup
			for i := range ids {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					measure(i)
				}(i)
			}
			wg.Wait()
		}
		for i, id := range ids {
			if panics[i] == nil {
				k.Tell(id, perfs[i])
			} else if failed == nil {
				failed = panics[i]
			}
		}
	}
}

// need is one real measurement the evaluator's open step waits on — or,
// in a prefetch round, a value the External layer answered at once.
type need struct {
	cfg       Config
	key       string // the evaluator cache key (fidelity-suffixed when reduced)
	fidelity  float64
	state     needState
	id        int             // Ask's id once led here
	wait      <-chan struct{} // the peer flight a following need waits on
	perf      float64         // the value, once done
	estimated bool            // perf is a gate estimate
}

type needState uint8

const (
	needOpen      needState = iota // not yet claimed
	needLed                        // handed out by Ask; awaiting Tell
	needFollowing                  // a peer measures it; wait closes when it ends
	needDone                       // the truth is in perf
)

// prefetch is one concurrent measurement round: every candidate a step may
// commit is measured before any is committed. The round commits nothing
// itself; probes against it commit what the sequential logic reaches, in
// the sequential order.
type prefetch struct {
	cfgs []Config
	vals map[string]*need
}

// value returns the round's known value for key.
func (pf *prefetch) value(key string) (*need, bool) {
	n := pf.vals[key]
	return n, n != nil && n.state == needDone
}

// prefetch starts a round over cfgs. In input order it skips cached points
// and duplicates, caps the rest at the remaining budget (an External answer
// commits like a measurement) and asks External.Lookup about each before
// anything is measured, so a stateful layer answers the same whatever order
// the measurements finish in. With workers <= 1 or a disabled cache there
// is no round: it returns nil.
func (e *Evaluator) prefetch(cfgs []Config, workers int) *prefetch {
	if workers <= 1 || e.DisableCache {
		return nil
	}
	remaining := len(cfgs)
	if e.MaxEvals > 0 {
		remaining = max(e.MaxEvals-len(e.trace), 0)
	}
	pf := &prefetch{cfgs: cfgs, vals: map[string]*need{}}
	for _, cfg := range cfgs {
		key := cfg.Key()
		if _, cached := e.cache[key]; remaining == 0 || cached || pf.vals[key] != nil {
			continue
		}
		remaining--
		if perf, est, ok := e.lookup(cfg, 0); ok {
			pf.vals[key] = &need{state: needDone, perf: perf, estimated: est}
		} else {
			pf.vals[key] = e.queue(cfg, key, 0)
		}
	}
	return pf
}

// queue adds a need to the open step, reusing the last committed probe's.
func (e *Evaluator) queue(cfg Config, key string, fidelity float64) *need {
	n := e.spare
	if n == nil {
		n = new(need)
	}
	e.spare = nil
	*n = need{cfg: cfg, key: key, fidelity: fidelity}
	e.needs = append(e.needs, n)
	return n
}

// claimNext advances the open step's needs in order: a need nobody has
// claimed yet, or whose peer flight ended, is claimed through the External
// layer. It returns the first need to measure here (led, with a fresh id),
// or nil; progressed reports that a need was resolved on the way.
func (e *Evaluator) claimNext() (led *need, progressed bool) {
	for _, n := range e.needs {
		waited := n.state == needFollowing
		if waited {
			select {
			case <-n.wait:
			default:
				continue
			}
		} else if n.state != needOpen {
			continue
		}
		if x := e.external(); x != nil {
			perf, wait, ok := x.Claim(n.cfg, n.fidelity, waited)
			if ok {
				n.perf, n.state = perf, needDone
				progressed = true
				continue
			}
			if wait != nil {
				n.state, n.wait = needFollowing, wait
				continue
			}
		}
		e.lastID++
		n.state, n.id = needLed, e.lastID
		return n, progressed
	}
	return nil, progressed
}

// tell resolves the led need with the given id; false when none is
// outstanding.
func (e *Evaluator) tell(id int, perf float64) bool {
	for _, n := range e.needs {
		if n.id == id && n.state == needLed {
			if x := e.external(); x != nil {
				x.Settle(n.cfg, n.fidelity, perf, true)
			}
			n.perf, n.state = perf, needDone
			return true
		}
	}
	return false
}

// settled reports whether every need of the open step is resolved, and
// then retires them.
func (e *Evaluator) settled() bool {
	for _, n := range e.needs {
		if n.state != needDone {
			return false
		}
	}
	e.needs = e.needs[:0]
	return true
}

// Wait returns the flight of the first point of the open step a peer is
// measuring: when it closes, the next Ask picks the result up (or, if the
// peer gave up, hands the point out to measure here). Nil when none.
func (e *Evaluator) Wait() <-chan struct{} {
	for _, n := range e.needs {
		if n.state == needFollowing {
			return n.wait
		}
	}
	return nil
}

// Abort ends the open step without the measurements it still waits on (the
// session went away, or a measurement panicked); its kernel does not
// resume. A batch whose prefetch round was measuring first commits every
// value the round obtained, in input order, so a partial trace keeps every
// point a client paid to measure. Measurements led here and never told are
// abandoned, so peers following them claim them anew.
func (e *Evaluator) Abort() {
	if pf := e.open; pf != nil {
		e.open = nil
		for _, cfg := range pf.cfgs {
			key := cfg.Key()
			n, known := pf.value(key)
			if n != nil && !known {
				continue // never measured
			}
			if _, cached := e.cache[key]; !known && !cached {
				break // past the round's budget cap
			}
			if _, _, err := e.probe(cfg, 0, pf); err != nil {
				break
			}
		}
	}
	for _, n := range e.needs {
		if x := e.external(); x != nil && n.state == needLed {
			x.Settle(n.cfg, n.fidelity, 0, false)
		}
	}
	e.needs = e.needs[:0]
}
