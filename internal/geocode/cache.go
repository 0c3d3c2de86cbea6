package geocode

import (
	"container/list"
	"sync"
)

// lruCache is a fixed-capacity least-recently-used cache. It exists because
// reverse-geocoding the same quantised coordinate repeatedly would burn the
// metered API budget: GPS tweets cluster in a few districts, so the hit rate
// is high. The client caches Locations under the quantised point.
type lruCache[K comparable, V any] struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List
	items     map[K]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRUCache[K comparable, V any](capacity int) *lruCache[K, V] {
	if capacity <= 0 {
		capacity = 1
	}
	return &lruCache[K, V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[K]*list.Element, capacity),
	}
}

// Get returns the cached value and whether it was present.
func (c *lruCache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// Put stores a value, evicting the least recently used entry when full.
func (c *lruCache[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[K, V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		if oldest != nil {
			c.ll.Remove(oldest)
			delete(c.items, oldest.Value.(*lruEntry[K, V]).key)
			c.evictions++
		}
	}
	c.items[key] = c.ll.PushFront(&lruEntry[K, V]{key: key, val: val})
}

// Len returns the number of cached entries.
func (c *lruCache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheStats reports cache effectiveness.
type CacheStats struct {
	Hits, Misses int64
	Evictions    int64
	Entries      int
}

func (c *lruCache[K, V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.ll.Len()}
}
