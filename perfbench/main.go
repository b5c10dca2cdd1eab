// Command perfbench is the repository benchmark. It runs one named workload
// against an in-process harmony server over loopback TCP, checks that the
// tuning results are correct, and prints the metrics as one JSON object on
// the last line of standard output. From the repository root:
//
//	python3 perfbench/run.py --workload serial --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate
// traced run that prints the per-layer metrics and writes its spans and a
// per-layer summary under --out. See README.md for the workloads, the
// metrics and the layer each one belongs to.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: serial, fleet, prior-runs or retune-gated")
	seed := fl.Uint64("seed", 1, "seed every input is derived from")
	seconds := fl.Float64("seconds", 10, "how long to measure")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fl.String("out", ".perfbench", "directory for traces, summaries and scratch data")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	w, err := workloadFor(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	// A hung session must not hang the run.
	limit := time.Duration((2**seconds + 120) * float64(time.Second))
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", limit)
		os.Exit(1)
	})
	defer watchdog.Stop()
	h := &harness{w: w, name: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	res, err := h.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	enc.Encode(map[string]interface{}{"env": h.env()})              //nolint:errcheck // stdout
	enc.Encode(map[string]interface{}{"deterministic": h.determ()}) //nolint:errcheck
	enc.Encode(map[string]interface{}{"samples": h.samples})        //nolint:errcheck
	if len(h.violations) > 0 {
		enc.Encode(map[string]interface{}{"violations": h.violations}) //nolint:errcheck
	}
	if h.trace {
		enc.Encode(map[string]interface{}{"trace_files": h.traceFiles}) //nolint:errcheck
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// harness runs one workload's episodes and turns them into metrics.
type harness struct {
	w       workload
	name    string
	seed    uint64
	seconds float64
	trace   bool
	out     string

	rec        *recorder
	episodes   []*episode
	cleanup    []func() error
	prepareS   float64
	measureS   float64
	violations []string
	samples    map[string]interface{}
	traceFiles []string
}

// stager is a workload whose episodes need data staged before their clock
// starts.
type stager interface {
	stage(e int) (string, error)
}

func (h *harness) run() (*result, error) {
	defer func() {
		for _, f := range h.cleanup {
			if err := f(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: cleanup:", err)
			}
		}
	}()
	if h.trace {
		h.rec = newRecorder()
	}
	if g := h.w.info().GOGC; g != 0 {
		defer debug.SetGCPercent(debug.SetGCPercent(g))
	}
	t0 := time.Now()
	if err := h.w.prepare(h); err != nil {
		return nil, fmt.Errorf("prepare %s: %w", h.name, err)
	}
	h.prepareS = time.Since(t0).Seconds()

	minEpisodes := h.w.info().MinEpisodes
	if h.trace && minEpisodes < 2 {
		minEpisodes = 2
	}
	t1 := time.Now()
	deadline := t1.Add(time.Duration(h.seconds * float64(time.Second)))
	for e := 0; e < minEpisodes || time.Now().Before(deadline); e++ {
		// A traced run alternates untraced and traced episodes: the
		// untraced ones are the baseline of obs.trace_overhead_frac.
		ep, err := h.episode(e, h.trace && e%2 == 1)
		if err != nil {
			return nil, err
		}
		h.episodes = append(h.episodes, ep)
	}
	h.measureS = time.Since(t1).Seconds()
	h.check()

	res := &result{Correct: len(h.violations) == 0}
	for _, ep := range h.episodes {
		for _, s := range ep.sessions {
			res.Attempted++
			if s.err != nil {
				res.Failed++
			}
		}
	}
	if h.trace {
		m, err := h.perLayer()
		if err != nil {
			return nil, err
		}
		res.Metrics = m
	} else {
		res.Metrics = h.endToEnd()
	}
	return res, nil
}

func (h *harness) episode(e int, traced bool) (*episode, error) {
	ep := &episode{index: e, ex: newLatHist(), reg: newLatHist()}
	if traced {
		ep.rec = h.rec
	}
	if st, ok := h.w.(stager); ok {
		dir, err := st.stage(e)
		if err != nil {
			return nil, fmt.Errorf("episode %d: staging: %w", e, err)
		}
		ep.dataDir = dir
	}
	// Collect the previous episode's garbage outside the clock.
	collect()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	ep.heapBase = base.HeapAlloc
	ep.start = time.Now()
	if err := h.w.configure(ep, h); err != nil {
		return nil, fmt.Errorf("episode %d: server: %w", e, err)
	}
	if err := ep.listen(); err != nil {
		return nil, fmt.Errorf("episode %d: listen: %w", e, err)
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	baseline := runtime.NumGoroutine()
	var stop chan struct{}
	peak := make(chan int, 1)
	if traced {
		stop = make(chan struct{})
		go samplePeak(stop, peak)
	}
	driveStart := time.Now()
	h.w.drive(ep, h)
	driveEnd := time.Now()
	if traced {
		close(stop)
		ep.goroutines = float64(<-peak-baseline) / float64(h.w.info().InFlight)
	}
	return ep, ep.finish(&before, driveStart, driveEnd)
}

// samplePeak samples the process goroutine count until stop closes and
// then sends the peak.
func samplePeak(stop <-chan struct{}, peak chan<- int) {
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	max := 0
	for {
		select {
		case <-stop:
			peak <- max
			return
		case <-t.C:
			if n := runtime.NumGoroutine(); n > max {
				max = n
			}
		}
	}
}

// qualitySessions are the sessions of the leading quality episodes, in
// schedule order: the fixed, seeded set the per-session metrics cover.
func (h *harness) qualitySessions() []*sessionResult {
	var out []*sessionResult
	q := h.w.info().Quality
	for _, ep := range h.episodes {
		if q == 0 || ep.index < q {
			out = append(out, ep.sessions...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// How close serial and fleet bests must come to the closed-form optimum.
// The default (extreme-value) initial simplex stops at 87% of it on
// average on the ten-parameter bowl, and rarely below 50%; a kernel that
// reports a wrong vertex lands far lower.
const (
	bestFloor     = 0.25 // every session
	bestMeanFloor = 0.8  // the run's mean
)

// check runs the correctness checks over every session of the run.
func (h *harness) check() {
	bad := func(format string, args ...interface{}) {
		if len(h.violations) < 20 {
			h.violations = append(h.violations, fmt.Sprintf(format, args...))
		}
	}
	frac, n := 0.0, 0 // serial and fleet: best over optimum
	for _, ep := range h.episodes {
		if err := ep.endErr; err != nil {
			bad("%v", err)
		}
		if ep.connErrs > 0 {
			bad("episode %d: %d connection errors", ep.index, ep.connErrs)
		}
		for _, s := range ep.sessions {
			switch {
			case s.err != nil:
				bad("session %s failed (%s): %v", s.id, s.kind, s.err)
				continue
			case !s.inSpace:
				bad("session %s: best %v is outside the space", s.id, s.best.Values)
				continue
			}
			switch h.name {
			case "serial", "fleet":
				if s.bestTrue != s.best.Perf {
					bad("session %s: reported best %v but the objective gives %v", s.id, s.best.Perf, s.bestTrue)
				}
				// Cache off: every value the kernel ranked was one the
				// client measured, so the best is the largest of them.
				if s.best.Perf != s.maxSeen {
					bad("session %s: reported best %v but the client measured %v", s.id, s.best.Perf, s.maxSeen)
				}
				if s.best.Perf < bestFloor*s.ref {
					bad("session %s: best %.3f is below %.0f%% of the optimum %.3f", s.id, s.best.Perf, 100*bestFloor, s.ref)
				}
				frac += s.best.Perf / s.ref
				n++
			case "prior-runs", "prior-runs-nocache":
				if s.bestTrue != s.best.Perf {
					bad("session %s: reported best %v, re-measured %v", s.id, s.best.Perf, s.bestTrue)
				}
			}
		}
	}
	if n > 0 && frac/float64(n) < bestMeanFloor {
		bad("mean best is %.1f%% of the optimum, below %.0f%%", 100*frac/float64(n), 100*bestMeanFloor)
	}
}

// estimatedBests lists retune-gated sessions whose reported best is not
// what re-measuring it gives: an estimate, flagged with its truth.
func (h *harness) estimatedBests() []map[string]interface{} {
	var out []map[string]interface{}
	for _, ep := range h.episodes {
		for _, s := range ep.sessions {
			if s.err == nil && s.best != nil && s.bestTrue != s.best.Perf {
				out = append(out, map[string]interface{}{"session": s.id, "reported": s.best.Perf, "truth": s.bestTrue})
			}
		}
	}
	return out
}

// env is the environment block printed with every result.
func (h *harness) env() map[string]interface{} {
	commit, digest := sourceIdentity()
	return map[string]interface{}{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit,
		"source":     digest,
		"workload":   h.name,
		"seed":       h.seed,
		"seconds":    h.seconds,
		"trace":      h.trace,
		"params":     h.w.info(),
		"episodes":   len(h.episodes),
		"prepare_s":  h.prepareS,
		"measure_s":  h.measureS,
	}
}

// cpuModel reads the CPU model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceIdentity returns the git commit when the working directory is a
// git checkout ("" otherwise) and a digest of the module's Go sources,
// which identifies the code either way.
func sourceIdentity() (string, string) {
	root := ".."
	if _, err := os.Stat("go.mod"); err == nil {
		if b, err := os.ReadFile("go.mod"); err == nil && strings.Contains(string(b), "module harmony\n") {
			root = "."
		}
	}
	commit := ""
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(root, ".git", r)); err == nil {
				commit = strings.TrimSpace(string(b))
			}
		} else {
			commit = ref
		}
	}
	sum := sha256.New()
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error { //nolint:errcheck // best effort
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(p); err == nil {
				fmt.Fprintf(sum, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
				sum.Write(b)
			}
		}
		return nil
	})
	return commit, hex.EncodeToString(sum.Sum(nil))[:16]
}
