package cache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// errAbsent fails the compute of a lookup, so a lookup stores nothing.
var errAbsent = errors.New("absent")

// lookup returns the stored value for key and whether it was present. A
// miss runs a failing compute, which Do never caches.
func lookup(c *Cache, key string) ([]byte, bool) {
	v, hit, err := c.Do(context.Background(), key, func() ([]byte, error) { return nil, errAbsent })
	return v, hit && err == nil
}

// put stores value under key through a computing Do flight.
func put(t *testing.T, c *Cache, key string, value []byte) {
	t.Helper()
	if _, _, err := c.Do(context.Background(), key, func() ([]byte, error) { return value, nil }); err != nil {
		t.Fatal(err)
	}
}

// TestGetPutHitMiss checks the counters and the single stored entry of a
// miss followed by a hit: the second flight neither recomputes nor replaces
// the stored value.
func TestGetPutHitMiss(t *testing.T) {
	c := New(8, 2)
	if _, ok := lookup(c, "a"); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	put(t, c, "a", []byte("alpha"))
	v, hit, err := c.Do(context.Background(), "a", func() ([]byte, error) { return []byte("two"), nil })
	if err != nil || !hit || string(v) != "alpha" {
		t.Fatalf("Do(a) = %q, hit=%v, err=%v; want alpha, true, nil", v, hit, err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 1 {
		t.Errorf("stats = %+v; want 1 hit, 2 misses, 1 entry", st)
	}
	if st.Shards != 2 {
		t.Errorf("shards = %d; want 2", st.Shards)
	}
}

// TestPutOverwrites checks the shard store: a second store under a key
// replaces the value in place and keeps a single entry.
func TestPutOverwrites(t *testing.T) {
	c := New(8, 1)
	s := c.shardFor("k")
	s.put("k", []byte("one"))
	s.put("k", []byte("two"))
	if v, _ := lookup(c, "k"); string(v) != "two" {
		t.Errorf("lookup(k) = %q; want two", v)
	}
	if n := c.Stats().Entries; n != 1 {
		t.Errorf("entries = %d; want 1", n)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2, 1) // single shard, two entries
	put(t, c, "a", []byte("a"))
	put(t, c, "b", []byte("b"))
	lookup(c, "a") // a becomes most recent
	put(t, c, "c", []byte("c"))
	if _, ok := lookup(c, "b"); ok {
		t.Error("b should have been evicted as least recently used")
	}
	if _, ok := lookup(c, "a"); !ok {
		t.Error("a should have survived: it was touched after b")
	}
	if _, ok := lookup(c, "c"); !ok {
		t.Error("c should be present")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d; want 1", st.Evictions)
	}
}

func TestCapacityBoundAcrossShards(t *testing.T) {
	c := New(32, 4)
	for i := 0; i < 1000; i++ {
		put(t, c, fmt.Sprintf("key-%d", i), []byte{byte(i)})
	}
	if n := c.Stats().Entries; n > 32 {
		t.Errorf("entries = %d exceeds the capacity bound 32", n)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Error("expected evictions after overfilling")
	}
}

func TestDoComputesOnceThenHits(t *testing.T) {
	c := New(8, 1)
	var calls atomic.Int64
	compute := func() ([]byte, error) {
		calls.Add(1)
		return []byte("value"), nil
	}
	v, hit, err := c.Do(context.Background(), "k", compute)
	if err != nil || hit || string(v) != "value" {
		t.Fatalf("first Do = %q, hit=%v, err=%v; want value, false, nil", v, hit, err)
	}
	v, hit, err = c.Do(context.Background(), "k", compute)
	if err != nil || !hit || string(v) != "value" {
		t.Fatalf("second Do = %q, hit=%v, err=%v; want value, true, nil", v, hit, err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("compute ran %d times; want 1", n)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New(8, 1)
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), "k", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v; want boom", err)
	}
	if _, ok := lookup(c, "k"); ok {
		t.Error("failed compute must not be cached")
	}
	v, hit, err := c.Do(context.Background(), "k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || string(v) != "ok" {
		t.Errorf("retry after error = %q, hit=%v, err=%v; want ok, false, nil", v, hit, err)
	}
}

func TestDoSingleFlight(t *testing.T) {
	c := New(8, 1)
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.Do(context.Background(), "k", func() ([]byte, error) {
			calls.Add(1)
			close(started)
			<-release
			return []byte("shared"), nil
		})
	}()
	<-started

	const waiters = 8
	results := make([][]byte, waiters)
	var wg sync.WaitGroup
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do(context.Background(), "k", func() ([]byte, error) {
				calls.Add(1)
				return []byte("fresh"), nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	<-leaderDone
	for i, v := range results {
		if string(v) != "shared" {
			t.Errorf("waiter %d saw %q; want the leader's value", i, v)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("compute ran %d times under contention; want 1", n)
	}
}

func TestDoWaiterHonoursContext(t *testing.T) {
	c := New(8, 1)
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go func() {
		c.Do(context.Background(), "k", func() ([]byte, error) {
			close(started)
			<-release
			return []byte("late"), nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, "k", func() ([]byte, error) { return nil, nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v; want context.Canceled", err)
	}
}

func TestDoPanicDoesNotPoisonKey(t *testing.T) {
	c := New(8, 1)
	panicked := false
	func() {
		defer func() { panicked = recover() != nil }()
		c.Do(context.Background(), "k", func() ([]byte, error) { panic("boom") })
	}()
	if !panicked {
		t.Fatal("the leader's panic must propagate")
	}
	// The key must not be poisoned: a later Do runs a fresh compute
	// instead of waiting on the dead flight, and nothing was cached.
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, hit, err := c.Do(context.Background(), "k", func() ([]byte, error) { return []byte("ok"), nil })
		if err != nil || hit || string(v) != "ok" {
			t.Errorf("Do after panic = %q, hit=%v, err=%v; want ok, false, nil", v, hit, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Do after a panicked flight hung: the key is poisoned")
	}
}

func TestDoPanicWakesWaiters(t *testing.T) {
	c := New(8, 1)
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() { recover() }()
		c.Do(context.Background(), "k", func() ([]byte, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func() ([]byte, error) { return []byte("x"), nil })
		done <- err
	}()
	close(release)
	select {
	case err := <-done:
		// The waiter either joined the dead flight (ErrComputeFailed) or
		// arrived after cleanup and computed successfully; both are fine —
		// only hanging is a failure.
		if err != nil && !errors.Is(err, ErrComputeFailed) {
			t.Errorf("waiter err = %v; want nil or ErrComputeFailed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter of a panicked flight hung")
	}
}

func TestDoConcurrentIdenticalValues(t *testing.T) {
	c := New(64, 8)
	want := []byte(`{"answer":42}`)
	const n = 64
	var wg sync.WaitGroup
	wg.Add(n)
	errs := make([]error, n)
	got := make([][]byte, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do(context.Background(), "shared", func() ([]byte, error) {
				return append([]byte(nil), want...), nil
			})
			got[i], errs[i] = v, err
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want) {
			t.Errorf("goroutine %d got %q; want %q", i, got[i], want)
		}
	}
}

func TestDefaults(t *testing.T) {
	c := New(0, 0)
	st := c.Stats()
	if st.Shards != DefaultShards {
		t.Errorf("shards = %d; want %d", st.Shards, DefaultShards)
	}
	if st.Capacity < DefaultEntries {
		t.Errorf("capacity = %d; want >= %d", st.Capacity, DefaultEntries)
	}
	// More shards than capacity must not create zero-sized shards.
	small := New(2, 64)
	put(t, small, "x", []byte("x"))
	if _, ok := lookup(small, "x"); !ok {
		t.Error("tiny cache lost its only entry")
	}
}

func TestStatsPerShard(t *testing.T) {
	c := New(64, 4)
	for i := 0; i < 32; i++ {
		put(t, c, string(rune('a'+i)), []byte{byte(i)}) // miss
	}
	lookup(c, string(rune('a'))) // hit
	lookup(c, "missing")         // miss
	st := c.Stats()
	if len(st.PerShard) != st.Shards {
		t.Fatalf("per-shard entries = %d; want %d", len(st.PerShard), st.Shards)
	}
	var agg ShardStats
	for _, ss := range st.PerShard {
		agg.Entries += ss.Entries
		agg.Hits += ss.Hits
		agg.Misses += ss.Misses
		agg.Evictions += ss.Evictions
		agg.Capacity += ss.Capacity
	}
	if agg.Entries != st.Entries || agg.Hits != st.Hits || agg.Misses != st.Misses ||
		agg.Evictions != st.Evictions || agg.Capacity != st.Capacity {
		t.Errorf("per-shard breakdown %+v does not sum to the aggregate %+v", agg, st)
	}
	if st.Entries != 32 || st.Hits != 1 || st.Misses != 33 {
		t.Errorf("aggregate = %+v; want 32 entries, 1 hit, 33 misses", st)
	}
}

func TestHitRate(t *testing.T) {
	if r := (Stats{}).HitRate(); r != 0 {
		t.Errorf("empty hit rate = %v; want 0", r)
	}
	if r := (Stats{Hits: 3, Misses: 1}).HitRate(); r != 0.75 {
		t.Errorf("hit rate = %v; want 0.75", r)
	}
}

// deadContext models the losing side of the waiter race: its Err reports a
// cancellation, but its Done channel never fires — exactly the state a
// waiter is in when its context dies after the select has already committed
// to the flight branch.
type deadContext struct{ context.Context }

func (deadContext) Done() <-chan struct{} { return nil }
func (deadContext) Err() error            { return context.Canceled }

// TestDoWaiterWithDeadContextDoesNotRetry locks in the waiter-retry guard:
// when the flight leader fails with a cancellation and the waiter's own
// context is dead by the time it observes that failure, the waiter must
// return its context error instead of retrying the flight — a retry would
// make it the new leader and run a full compute whose result nobody can use.
func TestDoWaiterWithDeadContextDoesNotRetry(t *testing.T) {
	c := New(8, 1)
	const key = "dead-ctx"
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		c.Do(context.Background(), key, func() ([]byte, error) {
			close(leaderIn)
			<-release
			return nil, context.Canceled
		})
		close(leaderDone)
	}()
	<-leaderIn

	var waiterComputes atomic.Int32
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(deadContext{context.Background()}, key, func() ([]byte, error) {
			waiterComputes.Add(1)
			return []byte("zombie"), nil
		})
		waiterErr <- err
	}()
	// Give the waiter time to join the flight, then fail the leader: the
	// waiter can only wake through the flight branch (its Done never fires)
	// and must bail out on its dead context instead of leading a retry.
	time.Sleep(10 * time.Millisecond)
	close(release)
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	if n := waiterComputes.Load(); n != 0 {
		t.Fatalf("dead-context waiter ran its compute %d times", n)
	}
	<-leaderDone
	if _, ok := lookup(c, key); ok {
		t.Fatal("a failed flight cached a value")
	}
}
