package serve

import (
	"container/list"
	"strings"
	"sync"
)

// Cache is a sharded LRU over canonical keys → encoded response bytes.
// Sharding keeps lock contention off the serving hot path: a key's
// shard is a pure function of its bytes (FNV-1a), each shard has its
// own mutex, recency list, and slice of the capacity. A zero-capacity
// cache is valid and never stores anything.
type Cache struct {
	shards []cacheShard
	mask   uint64
}

type cacheShard struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	ll       *list.List // front = most recently used
	hits     uint64
	misses   uint64
	evicted  uint64
}

type cacheEntry struct {
	key string
	val []byte
}

// CacheStats is a point-in-time counter snapshot summed over shards.
type CacheStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Evicted  uint64 `json:"evicted"`
	Len      int    `json:"len"`
	Capacity int    `json:"capacity"`
}

// DefaultCacheCapacity is the result-cache size callers select by not
// caring: the sentinel the server substitutes for an unset (zero)
// Options.CacheCapacity and the default of wmcsd's -cache flag. It is
// distinct from 0, which NewCache honors literally as "disabled".
const DefaultCacheCapacity = 4096

// NewCache builds a cache of exactly `capacity` entries over `shards`
// shards (rounded up to a power of two; defaults: 16 shards). Capacity
// is distributed over the shards with the remainder spread one entry at
// a time, so the shard capacities sum to the requested figure — Stats
// reports the number asked for, and a 16-shard cache of capacity 100
// holds at most 100 entries, not 112. Capacity <= 0 disables caching
// entirely: the cache is valid and never stores anything (callers that
// want the default must say DefaultCacheCapacity). A capacity smaller
// than the shard count leaves some shards at zero — keys hashing there
// are simply never cached.
func NewCache(capacity, shards int) *Cache {
	if capacity < 0 {
		capacity = 0
	}
	if shards <= 0 {
		shards = 16
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &Cache{shards: make([]cacheShard, n), mask: uint64(n - 1)}
	per, extra := capacity/n, capacity%n
	for i := range c.shards {
		c.shards[i].capacity = per
		if i < extra {
			c.shards[i].capacity++
		}
		c.shards[i].entries = make(map[string]*list.Element)
		c.shards[i].ll = list.New()
	}
	return c
}

// fnv1a hashes the key for shard selection.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func (c *Cache) shardFor(key string) *cacheShard {
	return &c.shards[fnv1a(key)&c.mask]
}

// Get returns the cached bytes for key and refreshes its recency. The
// returned slice is the stored one: callers must not mutate it (they
// only ever write it to a response).
func (c *Cache) Get(key string) ([]byte, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		s.ll.MoveToFront(el)
		s.hits++
		return el.Value.(*cacheEntry).val, true
	}
	s.misses++
	return nil, false
}

// Put stores val under key, evicting from the cold end of the shard
// when full. Storing an existing key refreshes it in place.
func (c *Cache) Put(key string, val []byte) {
	s := c.shardFor(key)
	if s.capacity <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		el.Value.(*cacheEntry).val = val
		s.ll.MoveToFront(el)
		return
	}
	s.entries[key] = s.ll.PushFront(&cacheEntry{key: key, val: val})
	for s.ll.Len() > s.capacity {
		old := s.ll.Back()
		s.ll.Remove(old)
		delete(s.entries, old.Value.(*cacheEntry).key)
		s.evicted++
	}
}

// entriesWithPrefix returns up to limit entries whose keys start with
// prefix, walking each shard's recency list front-to-back so the
// hottest entries surface first — the bounded scan behind the update
// handler's carry-forward pass. It reads under the shard locks and
// touches neither the hit/miss counters nor recency: this is
// bookkeeping, not a client access.
func (c *Cache) entriesWithPrefix(prefix string, limit int) []cacheEntry {
	var out []cacheEntry
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.ll.Front(); el != nil && len(out) < limit; el = el.Next() {
			if e := el.Value.(*cacheEntry); strings.HasPrefix(e.key, prefix) {
				out = append(out, *e)
			}
		}
		s.mu.Unlock()
		if len(out) >= limit {
			break
		}
	}
	return out
}

// Delete drops one key, reporting whether it was present. A flight
// leader uses it to un-cache a result it stored for an entry that was
// evicted or updated mid-evaluation (see Server.compute).
func (c *Cache) Delete(key string) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return false
	}
	s.ll.Remove(el)
	delete(s.entries, key)
	return true
}

// DeletePrefix drops every entry whose key starts with prefix — how
// network eviction invalidates that network's results (keys start with
// the network name, see buildKey).
func (c *Cache) DeletePrefix(prefix string) int {
	dropped := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for key, el := range s.entries {
			if strings.HasPrefix(key, prefix) {
				s.ll.Remove(el)
				delete(s.entries, key)
				dropped++
			}
		}
		s.mu.Unlock()
	}
	return dropped
}

// PrefixStats counts the entries whose keys start with prefix and the
// bytes they hold — the per-network cache gauges of /metricsz. A full
// walk under the shard locks, like DeletePrefix: scrape-rate work, not
// hot-path work.
func (c *Cache) PrefixStats(prefix string) (entries, bytes int) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for key, el := range s.entries {
			if strings.HasPrefix(key, prefix) {
				entries++
				bytes += len(el.Value.(*cacheEntry).val)
			}
		}
		s.mu.Unlock()
	}
	return entries, bytes
}

// Stats sums the shard counters.
func (c *Cache) Stats() CacheStats {
	var st CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evicted += s.evicted
		st.Len += s.ll.Len()
		st.Capacity += s.capacity
		s.mu.Unlock()
	}
	return st
}
