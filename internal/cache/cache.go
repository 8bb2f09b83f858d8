// Package cache provides the sharded, bounded result cache behind the
// dimensioning service: a fixed number of independently locked LRU shards
// memoizing serialized results keyed on a canonicalized request fingerprint.
//
// The cache is safe for concurrent use. Sharding keeps lock contention low
// when many requests arrive at once; each shard maintains its own
// least-recently-used order and entry bound, so the total entry count never
// exceeds the configured capacity (rounded up to a multiple of the shard
// count). Stored values are byte slices that callers must treat as
// read-only: every hit for a key returns the very slice that was stored, so
// cache hits are byte-identical by construction.
//
// Do is the one access path, with single-flight semantics: concurrent calls
// for the same missing key run the compute function once and share its
// result. Errors are never cached — a failed compute leaves the key absent,
// and every waiter sharing that flight receives the leader's error.
package cache

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Stats is a point-in-time aggregate of the cache counters across shards.
type Stats struct {
	// Hits counts lookups answered from a stored entry.
	Hits uint64 `json:"hits"`
	// Misses counts Do flights that had to compute; waiters served a
	// flight's shared result count as hits, not misses.
	Misses uint64 `json:"misses"`
	// Evictions counts entries dropped to respect the shard bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the number of values currently stored.
	Entries int `json:"entries"`
	// Capacity is the total entry bound across shards.
	Capacity int `json:"capacity"`
	// Shards is the number of independently locked shards.
	Shards int `json:"shards"`
	// PerShard is the per-shard breakdown, indexed by shard number. It is
	// appended after the aggregate fields so existing /statsz consumers see
	// an unchanged prefix.
	PerShard []ShardStats `json:"per_shard"`
}

// ShardStats is the counter snapshot of one shard: its occupancy against
// its own bound, plus its share of the aggregate hit/miss/eviction counts.
type ShardStats struct {
	// Entries is the number of values currently stored in this shard.
	Entries int `json:"entries"`
	// Capacity is this shard's entry bound.
	Capacity int `json:"capacity"`
	// Hits, Misses and Evictions are this shard's share of the totals.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// HitRate returns the fraction of lookups served from the cache.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// call is one in-flight computation shared by every waiter for its key.
type call struct {
	done  chan struct{}
	value []byte
	err   error
}

// entry is one stored key/value pair; it lives in the shard's LRU list.
type entry struct {
	key   string
	value []byte
}

// shard is one independently locked LRU segment of the cache.
type shard struct {
	mu       sync.Mutex
	entries  map[string]*list.Element
	order    *list.List // front = most recently used
	inflight map[string]*call
	capacity int

	hits      uint64
	misses    uint64
	evictions uint64
}

// Cache is a sharded, bounded LRU cache of serialized results.
type Cache struct {
	shards []*shard
}

// DefaultEntries is the entry bound used when New is given capacity <= 0.
const DefaultEntries = 4096

// DefaultShards is the shard count used when New is given shards <= 0.
const DefaultShards = 16

// New builds a cache bounded to roughly capacity entries spread over the
// given number of shards. Non-positive arguments fall back to
// DefaultEntries and DefaultShards; each shard holds at least one entry, so
// the effective capacity is never below the shard count.
func New(capacity, shards int) *Cache {
	if capacity <= 0 {
		capacity = DefaultEntries
	}
	if shards <= 0 {
		shards = DefaultShards
	}
	if shards > capacity {
		shards = capacity
	}
	perShard := (capacity + shards - 1) / shards
	c := &Cache{shards: make([]*shard, shards)}
	for i := range c.shards {
		c.shards[i] = &shard{
			entries:  make(map[string]*list.Element),
			order:    list.New(),
			inflight: make(map[string]*call),
			capacity: perShard,
		}
	}
	return c
}

// shardFor picks the shard owning a key via FNV-1a over the key bytes.
func (c *Cache) shardFor(key string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return c.shards[h%uint64(len(c.shards))]
}

// put inserts under the shard lock, evicting least-recently-used entries as
// needed.
func (s *shard) put(key string, value []byte) {
	if ele, ok := s.entries[key]; ok {
		s.order.MoveToFront(ele)
		ele.Value.(*entry).value = value
		return
	}
	s.entries[key] = s.order.PushFront(&entry{key: key, value: value})
	for len(s.entries) > s.capacity {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.entries, oldest.Value.(*entry).key)
		s.evictions++
	}
}

// Do returns the cached value for key, or computes, stores and returns it.
// The boolean reports whether the value came from the cache. Concurrent Do
// calls for the same missing key share a single compute invocation
// (single-flight); waiters either receive the leader's result or abandon the
// wait when their own context ends. Compute errors are returned to every
// caller of the flight and nothing is stored.
func (c *Cache) Do(ctx context.Context, key string, compute func() ([]byte, error)) ([]byte, bool, error) {
	s := c.shardFor(key)
	for {
		s.mu.Lock()
		if ele, ok := s.entries[key]; ok {
			s.order.MoveToFront(ele)
			s.hits++
			v := ele.Value.(*entry).value
			s.mu.Unlock()
			return v, true, nil
		}
		if fl, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if fl.err != nil {
				// The leader failed (possibly on its own cancelled context);
				// nothing was cached, so retry the flight under this caller's
				// still-live context rather than propagating a foreign error.
				// A waiter whose own context is already dead must not retry:
				// it could become the new leader and run a full compute whose
				// result nobody can use.
				if errors.Is(fl.err, context.Canceled) || errors.Is(fl.err, context.DeadlineExceeded) {
					if err := ctx.Err(); err != nil {
						return nil, false, err
					}
					continue
				}
				return nil, false, fl.err
			}
			// A shared result was served without recomputing: a hit for the
			// counters, even though the entry landed moments ago.
			s.mu.Lock()
			s.hits++
			s.mu.Unlock()
			return fl.value, true, nil
		}
		// Becoming the leader is the one true miss of a Do flight; waiters
		// and retry iterations do not inflate the miss counter.
		s.misses++
		fl := &call{done: make(chan struct{})}
		s.inflight[key] = fl
		s.mu.Unlock()

		// The flight is resolved in a defer so that a panicking compute
		// still unregisters it and wakes its waiters (with ErrComputeFailed
		// instead of a nil value) rather than poisoning the key forever; the
		// panic itself propagates to the leader's caller unchanged.
		completed := false
		defer func() {
			if !completed {
				fl.err = ErrComputeFailed
			}
			s.mu.Lock()
			delete(s.inflight, key)
			if fl.err == nil {
				s.put(key, fl.value)
			}
			s.mu.Unlock()
			close(fl.done)
		}()
		fl.value, fl.err = compute()
		completed = true
		return fl.value, false, fl.err
	}
}

// ErrComputeFailed is what waiters of a flight receive when its compute
// function panicked instead of returning.
var ErrComputeFailed = errors.New("cache: compute function panicked")

// Stats aggregates the per-shard counters and carries the per-shard
// breakdown alongside, indexed by shard number.
func (c *Cache) Stats() Stats {
	st := Stats{Shards: len(c.shards), PerShard: make([]ShardStats, len(c.shards))}
	for i, s := range c.shards {
		s.mu.Lock()
		ss := ShardStats{
			Entries:   len(s.entries),
			Capacity:  s.capacity,
			Hits:      s.hits,
			Misses:    s.misses,
			Evictions: s.evictions,
		}
		s.mu.Unlock()
		st.PerShard[i] = ss
		st.Hits += ss.Hits
		st.Misses += ss.Misses
		st.Evictions += ss.Evictions
		st.Entries += ss.Entries
		st.Capacity += ss.Capacity
	}
	return st
}
