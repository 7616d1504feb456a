package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCacheHitMiss(t *testing.T) {
	c := newResultCache(4, 1<<20)
	if _, _, ok := c.get("q1"); ok {
		t.Fatal("hit on empty cache")
	}
	c.put("q1", []byte(`[{"x":"alice"}]`), 1)
	got, count, ok := c.get("q1")
	if !ok || count != 1 || string(got) != `[{"x":"alice"}]` {
		t.Fatalf("get = %s, %d, %v", got, count, ok)
	}
	st := c.stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2, 1<<20)
	c.put("a", []byte("[]"), 0)
	c.put("b", []byte("[]"), 0)
	if _, _, ok := c.get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", []byte("[]"), 0) // evicts b
	if _, _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction; LRU order wrong")
	}
	if _, _, ok := c.get("a"); !ok {
		t.Fatal("a evicted despite recent use")
	}
	if _, _, ok := c.get("c"); !ok {
		t.Fatal("c missing")
	}
	if st := c.stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / 2 entries", st)
	}
}

func TestCacheByteBound(t *testing.T) {
	// The bound is exact: an entry costs len(key)+len(solutions), here
	// 1+2 bytes, so an 8-byte bound holds two entries and not three.
	c := newResultCache(0, 8)
	c.put("a", []byte("[]"), 0)
	c.put("b", []byte("[]"), 0)
	if st := c.stats(); st.Entries != 2 || st.Bytes != 6 {
		t.Fatalf("stats = %+v, want 2 entries / 6 bytes", st)
	}
	c.put("c", []byte("[]"), 0)
	st := c.stats()
	if st.Entries != 2 || st.Evictions != 1 || st.Bytes != 6 {
		t.Fatalf("stats = %+v, want 2 entries / 1 eviction / 6 bytes", st)
	}
	if _, _, ok := c.get("a"); ok {
		t.Fatal("oldest entry should have been evicted")
	}
}

func TestCacheOversizeEntrySkipped(t *testing.T) {
	c := newResultCache(4, 100)
	c.put("big", []byte(`[{"x":"`+strings.Repeat("v", 200)+`"}]`), 1)
	if st := c.stats(); st.Entries != 0 {
		t.Fatalf("oversize entry was cached: %+v", st)
	}
}

func TestCacheRefreshInPlace(t *testing.T) {
	c := newResultCache(4, 1<<20)
	c.put("q", []byte(`[{"x":"old"}]`), 1)
	fresh := `[{"x":"new"},{"x":"er"}]`
	c.put("q", []byte(fresh), 2)
	got, count, ok := c.get("q")
	if !ok || count != 2 || string(got) != fresh {
		t.Fatalf("refresh lost: %s %d %v", got, count, ok)
	}
	st := c.stats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 after refresh", st.Entries)
	}
	if want := int64(len("q") + len(fresh)); st.Bytes != want {
		t.Fatalf("bytes = %d, want re-accounted %d", st.Bytes, want)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := newResultCache(4, 1<<20)
	c.put("a", []byte("[]"), 0)
	c.put("b", []byte("[]"), 0)
	c.invalidate()
	st := c.stats()
	if st.Entries != 0 || st.Bytes != 0 || st.Invalidations != 1 {
		t.Fatalf("stats after invalidate = %+v", st)
	}
	if _, _, ok := c.get("a"); ok {
		t.Fatal("entry survived invalidation")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := newResultCache(8, 1<<20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("q%d", (g+i)%16)
				if _, _, ok := c.get(key); !ok {
					c.put(key, []byte(key), 1)
				}
			}
		}()
	}
	wg.Wait()
	if st := c.stats(); st.Entries > 8 {
		t.Fatalf("entry bound violated: %+v", st)
	}
}
