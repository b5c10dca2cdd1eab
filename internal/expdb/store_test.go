package expdb

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"harmony/internal/search"
)

// trace builds a small tuning trace whose best point is (bx, by).
func trace(bx, by, n int) search.Trace {
	tr := make(search.Trace, 0, n)
	for i := 0; i < n; i++ {
		cfg := search.Config{bx + i, by - i}
		tr = append(tr, search.Evaluation{Config: cfg, Perf: float64(100 - i*i), Index: i})
	}
	return tr
}

func openTest(t *testing.T, dir string, mutate func(*Options)) *Store {
	t.Helper()
	opts := Options{Dir: dir}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDepositMatchRoundTrip(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	defer s.Close()

	stored, err := s.Deposit("app/s1", "w1", []float64{0.8, 0.2}, search.Maximize, trace(10, 20, 4))
	if err != nil || !stored {
		t.Fatalf("Deposit = %v, %v", stored, err)
	}
	// Empty characteristics or trace deposit nothing.
	if stored, err := s.Deposit("app/s1", "w", nil, search.Maximize, trace(1, 1, 2)); err != nil || stored {
		t.Fatalf("chars-free Deposit = %v, %v", stored, err)
	}
	if stored, err := s.Deposit("app/s1", "w", []float64{1}, search.Maximize, nil); err != nil || stored {
		t.Fatalf("trace-free Deposit = %v, %v", stored, err)
	}

	exp, dist, ok := s.Match("app/s1", []float64{0.79, 0.21})
	if !ok {
		t.Fatal("Match missed")
	}
	if exp.Label != "w1" || len(exp.Records) != 4 {
		t.Fatalf("matched %+v", exp)
	}
	if dist > 0.001 {
		t.Fatalf("dist = %v", dist)
	}
	if _, _, ok := s.Match("other/ns", []float64{0.8, 0.2}); ok {
		t.Fatal("Match crossed namespaces")
	}
	if _, _, ok := s.Match("app/s1", nil); ok {
		t.Fatal("Match accepted empty characteristics")
	}
}

func TestMatchReturnsDetachedClone(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	defer s.Close()
	s.Deposit("k", "w", []float64{1, 0}, search.Maximize, trace(5, 5, 3))
	exp, _, _ := s.Match("k", []float64{1, 0})
	exp.Records[0].Perf = -1e9
	exp.Characteristics[0] = 42

	again, _, _ := s.Match("k", []float64{1, 0})
	if again.Records[0].Perf == -1e9 || again.Characteristics[0] == 42 {
		t.Fatal("Match handed out shared mutable state")
	}
}

// TestCrashRecovery simulates kill -9: the first store is abandoned
// without Close or Snapshot; a second store on the same directory must see
// every acknowledged deposit via WAL replay alone.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s1 := openTest(t, dir, nil)
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("app/s%d", i%2)
		if _, err := s1.Deposit(key, "w", []float64{float64(i), 1}, search.Maximize, trace(i, i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	// No Close, no Snapshot: the process "dies" here.

	s2 := openTest(t, dir, nil)
	defer s2.Close()
	if s2.Len() != 5 {
		t.Fatalf("recovered %d experiences, want 5", s2.Len())
	}
	exp, _, ok := s2.Match("app/s1", []float64{3, 1})
	if !ok || exp.Characteristics[0] != 3 {
		t.Fatalf("post-crash Match = %+v, ok=%v", exp, ok)
	}
}

// TestCrashRecoveryTornTail corrupts the WAL tail the way a crash
// mid-write would, and verifies every record before the corruption point
// survives while the tail is truncated for clean appends.
func TestCrashRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	s1 := openTest(t, dir, nil)
	for i := 0; i < 3; i++ {
		if _, err := s1.Deposit("k", "w", []float64{float64(i)}, search.Maximize, trace(i, i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	walPath := filepath.Join(dir, walName)
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record in half.
	if err := os.Truncate(walPath, fi.Size()-20); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, nil)
	if s2.Len() != 2 {
		t.Fatalf("recovered %d experiences after torn tail, want 2", s2.Len())
	}
	// The tail was truncated: appending must produce a decodable log.
	if _, err := s2.Deposit("k", "w", []float64{9}, search.Maximize, trace(9, 9, 2)); err != nil {
		t.Fatal(err)
	}
	s3 := openTest(t, dir, nil)
	defer s3.Close()
	if s3.Len() != 3 {
		t.Fatalf("after truncate+append+reopen: %d experiences, want 3", s3.Len())
	}
	s2.Close()
}

// TestSnapshotFoldsWAL verifies the snapshot cadence: the WAL shrinks, the
// snapshot file appears, and recovery after a snapshot + further deposits
// replays without duplicating anything (the AppliedLSN horizon).
func TestSnapshotFoldsWAL(t *testing.T) {
	dir := t.TempDir()
	s1 := openTest(t, dir, func(o *Options) { o.SnapshotEvery = 4 })
	for i := 0; i < 10; i++ {
		// Distinct characteristics so compaction doesn't merge them.
		if _, err := s1.Deposit("k", "w", []float64{float64(i), -float64(i)}, search.Maximize, trace(i, i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("no snapshot after 10 deposits at cadence 4: %v", err)
	}
	// Crash without Close.
	s2 := openTest(t, dir, nil)
	defer s2.Close()
	if s2.Len() != 10 {
		t.Fatalf("recovered %d experiences, want 10 (no loss, no duplication)", s2.Len())
	}
	if got := s2.NamespaceLen("k"); got != 10 {
		t.Fatalf("namespace holds %d, want 10", got)
	}
}

func TestCompactionBoundsNamespace(t *testing.T) {
	s := openTest(t, t.TempDir(), func(o *Options) {
		o.CompactAbove = 8
		o.MergeDist = 10 // generous: everything merges
		o.KeepRecords = 4
	})
	defer s.Close()
	for i := 0; i < 50; i++ {
		if _, err := s.Deposit("k", "w", []float64{1, 1}, search.Maximize, trace(i%5, i%5, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.NamespaceLen("k"); got > 9 {
		t.Fatalf("namespace grew to %d despite compaction threshold 8", got)
	}
	exp, _, ok := s.Match("k", []float64{1, 1})
	if !ok {
		t.Fatal("Match missed after compaction")
	}
	if len(exp.Records) > 4 {
		t.Fatalf("experience kept %d records, want <= 4", len(exp.Records))
	}
}

func TestConcurrentDepositsAndMatches(t *testing.T) {
	s := openTest(t, t.TempDir(), func(o *Options) { o.SnapshotEvery = 8 })
	defer s.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("app/s%d", g%3)
			for i := 0; i < 20; i++ {
				if _, err := s.Deposit(key, "w", []float64{float64(g), float64(i)}, search.Maximize, trace(i, g, 2)); err != nil {
					errs <- err
					return
				}
				s.Match(key, []float64{float64(g), float64(i)})
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Everything acknowledged must survive a reopen.
	dir := s.opts.Dir
	s.Close()
	s2 := openTest(t, dir, nil)
	defer s2.Close()
	total := 0
	for i := 0; i < 3; i++ {
		total += s2.NamespaceLen(fmt.Sprintf("app/s%d", i))
	}
	if total == 0 {
		t.Fatal("nothing survived the concurrent run")
	}
}

// TestOpenWithoutDirStaysInMemory: a store opened without a directory
// serves the whole API from memory and never writes a file — not even into
// the working directory, where a joined empty Dir would land.
func TestOpenWithoutDirStaysInMemory(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	if err := os.Chdir(tmp); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) }) //nolint:errcheck // best effort

	s, err := Open(Options{SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, chars := range [][]float64{{0.8, 0.2}, {0.1, 0.9}} {
		if stored, err := s.Deposit("app/s1", fmt.Sprintf("w%d", i), chars, search.Maximize, trace(10*i, 20, 3)); err != nil || !stored {
			t.Fatalf("Deposit %d = %v, %v", i, stored, err)
		}
	}
	if _, err := s.Deposit("other/s2", "w", []float64{0.5}, search.Maximize, trace(1, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if exp, _, ok := s.Match("app/s1", []float64{0.12, 0.88}); !ok || exp.Label != "w1" {
		t.Fatalf("Match = %+v, %v; want w1", exp, ok)
	}
	walked := 0
	s.WalkRecords("app/s1", func(search.Config, float64) { walked++ })
	if walked != 6 {
		t.Fatalf("walked %d records, want 6", walked)
	}
	if page, total := s.WalkRecordsPage("app/s1", 2, 3); total != 6 || len(page) != 3 {
		t.Fatalf("page = %d records of %d, want 3 of 6", len(page), total)
	}
	if ns := s.Namespaces(); len(ns) != 2 || ns[0].Key != "app/s1" || ns[0].Experiences != 2 || ns[0].Records != 6 {
		t.Fatalf("Namespaces = %+v", ns)
	}
	if removed, err := s.Prune("other/s2"); err != nil || removed != 1 {
		t.Fatalf("Prune = %d, %v", removed, err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d after prune, want 2", s.Len())
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("in-memory store wrote %s", e.Name())
	}
}

func TestDepositAfterCloseFails(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	s.Close()
	if _, err := s.Deposit("k", "w", []float64{1}, search.Maximize, trace(1, 1, 1)); err == nil {
		t.Fatal("Deposit succeeded on a closed store")
	}
}
