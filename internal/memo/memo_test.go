package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// Concurrent Gets of one key must share one computation.
func TestGetIsSingleFlight(t *testing.T) {
	c := New[int](4)
	var calls atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	hits := make([]bool, 8)
	for i := range hits {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := c.Get("k", func() (int, error) {
				calls.Add(1)
				<-release
				return 42, nil
			})
			if v != 42 || err != nil {
				t.Errorf("Get = %d, %v", v, err)
			}
			hits[i] = hit
		}(i)
	}
	close(release)
	wg.Wait()
	misses := 0
	for _, hit := range hits {
		if !hit {
			misses++
		}
	}
	if calls.Load() != 1 || misses != 1 {
		t.Fatalf("%d computations, %d misses; want 1 and 1", calls.Load(), misses)
	}
}

// A failed computation is not cached: the next Get computes again.
func TestGetRetriesErrors(t *testing.T) {
	c := New[int](4)
	boom := errors.New("boom")
	if _, _, err := c.Get("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, hit, err := c.Get("k", func() (int, error) { return 7, nil })
	if v != 7 || hit || err != nil {
		t.Fatalf("retry = %d, hit %t, %v; want a fresh 7", v, hit, err)
	}
}

// Past the limit the least recently used entry goes; a Get refreshes
// an entry's recency.
func TestGetEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string](2)
	get := func(key string) bool {
		_, hit, _ := c.Get(key, func() (string, error) { return key, nil })
		return hit
	}
	get("a")
	get("b")
	get("a") // b is now least recently used
	get("c") // evicts b
	if !get("a") || !get("c") {
		t.Error("recently used entries were evicted")
	}
	if get("b") {
		t.Error("least recently used entry survived eviction")
	}
}
