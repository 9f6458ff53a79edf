// Package memo is the bounded, single-flight memo that the build
// pipeline's stage cache and the bench engine's baseline measurements
// share.
package memo

import "sync"

// Cache memoizes values by key. Lookups are single-flight: concurrent
// Gets of one key share one computation, the others blocking on it. At
// most limit entries are kept, the least recently used completed one
// evicted first, so a long-lived cache cannot grow without bound; an
// evicted value is simply recomputed on next use. Errors are not
// values: a failed computation is dropped so a later Get retries. A
// Cache is safe for concurrent use.
type Cache[T any] struct {
	mu    sync.Mutex
	limit int
	m     map[string]*entry[T]
	use   []string // keys, least recently used first
}

// entry is one single-flight slot. done is closed once val/err are
// final.
type entry[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// New returns an empty cache holding at most limit entries.
func New[T any](limit int) *Cache[T] {
	return &Cache[T]{limit: limit, m: map[string]*entry[T]{}}
}

// Get returns the value for key, calling compute unless another Get has
// computed it or is computing it. hit reports that it did not call
// compute.
func (c *Cache[T]) Get(key string, compute func() (T, error)) (val T, hit bool, err error) {
	c.mu.Lock()
	if ent, ok := c.m[key]; ok {
		c.use = touch(c.use, key)
		c.mu.Unlock()
		<-ent.done
		return ent.val, true, ent.err
	}
	ent := &entry[T]{done: make(chan struct{})}
	c.m[key] = ent
	c.use = touch(c.use, key)
	if len(c.m) > c.limit {
		c.evictLocked()
	}
	c.mu.Unlock()

	ent.val, ent.err = compute()
	close(ent.done)
	if ent.err != nil {
		c.mu.Lock()
		if c.m[key] == ent {
			delete(c.m, key)
			c.use = remove(c.use, key)
		}
		c.mu.Unlock()
	}
	return ent.val, false, ent.err
}

// evictLocked drops the least-recently-used completed entry. In-flight
// entries are skipped: evicting one would detach waiters from the
// single-flight slot. c.mu must be held.
func (c *Cache[T]) evictLocked() {
	for _, key := range c.use {
		select {
		case <-c.m[key].done:
			delete(c.m, key)
			c.use = remove(c.use, key)
			return
		default:
		}
	}
}

// touch moves key to the most-recently-used end of use, appending it if
// absent, and returns the updated order.
func touch(use []string, key string) []string {
	return append(remove(use, key), key)
}

func remove(use []string, key string) []string {
	for i, k := range use {
		if k == key {
			return append(use[:i:i], use[i+1:]...)
		}
	}
	return use
}
