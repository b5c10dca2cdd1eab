package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestShardedCounterSumsStripes(t *testing.T) {
	r := NewRegistry()
	c := r.ShardedCounter("test_sharded_total", "help", 8)
	if c.Shards() != 8 {
		t.Fatalf("Shards() = %d, want 8", c.Shards())
	}
	c.Inc(0)
	c.Inc(3)
	c.Add(7, 5)
	c.Add(8, 2)  // masks onto shard 0
	c.Add(1, -4) // ignored: monotone
	c.Inc(-1)    // masked, not a panic
	if got := c.Value(); got != 10 {
		t.Fatalf("Value() = %d, want 10", got)
	}
}

func TestShardedCounterRoundsUpAndClamps(t *testing.T) {
	r := NewRegistry()
	if got := r.ShardedCounter("test_round_total", "", 5).Shards(); got != 8 {
		t.Errorf("shards=5 rounded to %d, want 8", got)
	}
	if got := r.ShardedCounter("test_clamp_total", "", 0).Shards(); got != 1 {
		t.Errorf("shards=0 clamped to %d, want 1", got)
	}
}

func TestShardedCounterNilSafe(t *testing.T) {
	var c *ShardedCounter
	c.Inc(3)
	c.Add(1, 2)
	if c.Value() != 0 || c.Shards() != 0 {
		t.Fatal("nil handle must read as zero")
	}
	var r *Registry
	if r.ShardedCounter("x", "", 4) != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
}

func TestShardedCounterReregistrationShares(t *testing.T) {
	r := NewRegistry()
	a := r.ShardedCounter("test_shared_total", "", 4)
	b := r.ShardedCounter("test_shared_total", "", 16)
	if a != b {
		t.Fatal("re-registration must return the existing handle")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cross-type collision must panic")
		}
	}()
	r.Counter("test_shared_total", "")
}

func TestShardedCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.ShardedCounter("test_conc_total", "", 16)
	const workers, perWorker = 32, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc(shard)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("Value() = %d, want %d", got, workers*perWorker)
	}
}

func TestShardedCounterExposition(t *testing.T) {
	r := NewRegistry()
	c := r.ShardedCounter("test_expo_total", "striped counter", 4)
	c.Add(2, 42)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE test_expo_total counter",
		"test_expo_total 42",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}
