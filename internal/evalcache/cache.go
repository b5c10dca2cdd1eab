// Package evalcache implements the server's "measure once" layer: a
// sharded, concurrency-safe config→performance memo with singleflight
// coalescing of duplicate in-flight measurements, plus an opt-in §4.3
// estimation gate that answers probes from the triangulation estimator's
// plane fit when the fit is well-supported.
//
// The dominant cost in Active Harmony is the real measurement — every
// simplex probe is a full client round-trip — and the same configuration is
// routinely probed more than once: by the same session (speculative rounds
// whose candidates are discarded), by a peer session tuning the same
// application, or by a prior run whose trace sits in the durable experience
// database. Tuneful (Fekry et al.) and BestConfig (Zhu et al.) both frame
// online tuning as squeezing a fixed measurement budget; this layer's
// contract is simply "never pay twice for the same point":
//
//   - exact hits return the previously measured truth, free;
//   - duplicate in-flight configurations (within one pipelined window or
//     across sessions sharing a scope) ride one measurement via
//     singleflight;
//   - optionally, the estimation gate substitutes a computed value when the
//     k-NN vertices are close and the hyperplane fit is tight, falling back
//     to a real measurement otherwise.
//
// Layer binds the memo and the gate to one evaluator through the single
// search.ExternalCache interface, whose Lookup and Measure take a
// fidelity. Full fidelity (0) uses the plain configuration key; a
// reduced-fidelity sample is keyed on (configuration, fidelity), is
// answered by a full-fidelity truth when one exists, and never reaches the
// gate.
//
// Exact-only caching is trajectory-preserving: for deterministic objectives
// the committed tuning trajectory is identical to an uncached run — only
// the number of real objective invocations drops. The estimation gate
// trades that identity for further savings and is therefore opt-in.
package evalcache

import (
	"errors"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultShards is the lock-shard count of a Cache.
const DefaultShards = 16

// DefaultMaxEntries bounds the number of distinct configurations one Cache
// retains (per cache, summed over shards). Beyond it, inserts evict an
// arbitrary resident entry — the memo is an optimization, not a store of
// record, so dropping entries only costs future hits.
const DefaultMaxEntries = 1 << 18

// ErrCanceled is returned by Do when the caller's cancel channel closes
// while waiting on a peer's in-flight measurement.
var ErrCanceled = errors.New("evalcache: wait for in-flight measurement canceled")

// entry is one memoized truth: the measured performance and what the
// measurement cost (hits are credited with that much saved wall-clock).
type entry struct {
	perf float64
	cost time.Duration
}

// flight is one in-flight measurement other callers may coalesce onto.
type flight struct {
	done   chan struct{} // closed when the leader finishes (or fails)
	perf   float64       // valid when !failed, after done
	cost   time.Duration // ditto
	failed bool          // leader panicked; followers must retry
}

type shard struct {
	mu       sync.Mutex
	vals     map[string]entry
	inflight map[string]*flight
}

// Cache is the sharded exact-hit memo with singleflight coalescing. All
// methods are safe for concurrent use. Keys are canonical configuration
// strings (search.Config.Key); values are measured truths only — estimated
// performances never enter the memo.
type Cache struct {
	shards  []*shard
	metrics *Metrics
	// perShardCap bounds each shard's resident entries.
	perShardCap int

	// len tracks resident entries across shards (the size gauge's source).
	len atomic.Int64
	// costSum/costN track measurement costs for MeanCost.
	costSumNanos atomic.Int64
	costN        atomic.Int64
}

// New returns a cache with `shards` lock stripes (DefaultShards when <= 0),
// at most maxEntries resident entries (DefaultMaxEntries when 0; negative
// means unbounded) and the given metrics bundle (nil disables at ~zero
// cost). Several caches may share one Metrics bundle; the size gauge then
// carries their sum.
func New(shards, maxEntries int, m *Metrics) *Cache {
	if shards <= 0 {
		shards = DefaultShards
	}
	if maxEntries == 0 {
		maxEntries = DefaultMaxEntries
	}
	perShard := -1
	if maxEntries > 0 {
		if perShard = maxEntries / shards; perShard < 1 {
			perShard = 1
		}
	}
	c := &Cache{shards: make([]*shard, shards), metrics: m.orNop(), perShardCap: perShard}
	for i := range c.shards {
		c.shards[i] = &shard{vals: map[string]entry{}, inflight: map[string]*flight{}}
	}
	return c
}

func (c *Cache) shard(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return c.shards[int(h.Sum32())%len(c.shards)]
}

// Lookup returns the memoized truth for key. A hit ticks the hit counter
// and credits the original measurement's cost as saved wall-clock; a miss
// ticks the miss counter.
func (c *Cache) Lookup(key string) (float64, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	e, ok := sh.vals[key]
	sh.mu.Unlock()
	if !ok {
		c.metrics.Misses.Inc()
		return 0, false
	}
	c.metrics.Hits.Inc()
	c.metrics.SavedSeconds.Add(e.cost.Seconds())
	return e.perf, true
}

// Peek returns the memoized truth for key without touching any metric.
func (c *Cache) Peek(key string) (float64, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	e, ok := sh.vals[key]
	sh.mu.Unlock()
	return e.perf, ok
}

// Put memoizes a truth obtained outside Do — warm fills from the durable
// experience store, seeded historical pairs. cost is what re-measuring
// would take (0 when unknown); future hits are credited with it.
func (c *Cache) Put(key string, perf float64, cost time.Duration) {
	sh := c.shard(key)
	sh.mu.Lock()
	c.storeLocked(sh, key, perf, cost)
	sh.mu.Unlock()
	c.metrics.Size.Set(float64(c.len.Load()))
}

// storeLocked inserts (or overwrites) an entry, evicting an arbitrary
// resident one when the shard is at capacity. Callers hold sh.mu.
func (c *Cache) storeLocked(sh *shard, key string, perf float64, cost time.Duration) {
	if _, exists := sh.vals[key]; !exists {
		if c.perShardCap > 0 && len(sh.vals) >= c.perShardCap {
			for victim := range sh.vals { // arbitrary eviction: one map key
				delete(sh.vals, victim)
				c.len.Add(-1)
				break
			}
		}
		c.len.Add(1)
	}
	sh.vals[key] = entry{perf: perf, cost: cost}
	if cost > 0 {
		c.costSumNanos.Add(int64(cost))
		c.costN.Add(1)
	}
}

// Do returns the truth for key, measuring at most once across concurrent
// callers:
//
//   - a memo hit returns immediately (counted as a hit);
//   - when another caller is already measuring key, Do waits for that
//     measurement and shares its result (counted as coalesced; saved
//     wall-clock credited with the leader's cost);
//   - otherwise this caller becomes the leader, runs measure, memoizes the
//     result and wakes the followers.
//
// A panic in measure unwinds the leader (after waking followers), and the
// followers elect a new leader — a dying session must not poison its peers.
// cancel, when non-nil and closed while waiting on a peer's measurement,
// makes Do return ErrCanceled (the leader itself is never canceled here:
// its measure closure is expected to watch its own session lifetime).
//
// coalesced reports that the result came from a peer's measurement or from
// a racing insert rather than this caller's own measure run.
func (c *Cache) Do(key string, measure func() float64, cancel <-chan struct{}) (perf float64, coalesced bool, err error) {
	sh := c.shard(key)
	waited := false
	for {
		sh.mu.Lock()
		if e, ok := sh.vals[key]; ok {
			sh.mu.Unlock()
			if waited {
				// We piggybacked on a peer's work (or lost a race to a
				// deposit): the measurement cost was saved.
				c.metrics.Coalesced.Inc()
				c.metrics.SavedSeconds.Add(e.cost.Seconds())
			} else {
				c.metrics.Hits.Inc()
				c.metrics.SavedSeconds.Add(e.cost.Seconds())
			}
			return e.perf, true, nil
		}
		if f := sh.inflight[key]; f != nil {
			sh.mu.Unlock()
			waited = true
			select {
			case <-f.done:
			case <-cancel:
				return 0, false, ErrCanceled
			}
			if !f.failed {
				c.metrics.Coalesced.Inc()
				c.metrics.SavedSeconds.Add(f.cost.Seconds())
				return f.perf, true, nil
			}
			continue // leader died; loop to (maybe) take over
		}
		// Become the leader.
		f := &flight{done: make(chan struct{})}
		sh.inflight[key] = f
		sh.mu.Unlock()

		start := time.Now()
		ok := false
		func() {
			defer func() {
				// Runs on both clean return and panic: publish the outcome,
				// clear the in-flight slot, wake followers. On panic the
				// panic keeps unwinding through Do to the caller.
				sh.mu.Lock()
				delete(sh.inflight, key)
				if ok {
					f.perf, f.cost = perf, time.Since(start)
					c.storeLocked(sh, key, f.perf, f.cost)
				} else {
					f.failed = true
				}
				sh.mu.Unlock()
				close(f.done)
				if ok {
					c.metrics.Size.Set(float64(c.len.Load()))
				}
			}()
			perf = measure()
			ok = true
		}()
		return perf, false, nil
	}
}

// Len returns the number of resident entries.
func (c *Cache) Len() int { return int(c.len.Load()) }

// MeanCost returns the mean cost of the measurements the cache has
// witnessed (0 when none carried a cost). The estimation gate credits each
// estimated answer with this much saved wall-clock.
func (c *Cache) MeanCost() time.Duration {
	n := c.costN.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(c.costSumNanos.Load() / n)
}
