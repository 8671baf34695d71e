package memory

import (
	"errors"
	"testing"
)

func TestModelCacheHitMiss(t *testing.T) {
	c := NewModelCache(100)
	if c.Contains("a") {
		t.Fatal("empty cache reported hit")
	}
	if err := c.Insert("a", 40); err != nil {
		t.Fatal(err)
	}
	if !c.Contains("a") {
		t.Fatal("inserted model not found")
	}
}

func TestModelCacheLRUEviction(t *testing.T) {
	c := NewModelCache(100)
	for _, m := range []struct {
		n string
		b int64
	}{{"a", 40}, {"b", 40}} {
		if err := c.Insert(m.n, m.b); err != nil {
			t.Fatal(err)
		}
	}
	c.Contains("a") // make "b" the LRU
	if err := c.Insert("c", 40); err != nil {
		t.Fatal(err)
	}
	if c.Peek("b") {
		t.Error("LRU model b not evicted")
	}
	if !c.Peek("a") || !c.Peek("c") {
		t.Error("wrong model evicted")
	}
}

func TestModelCacheOversized(t *testing.T) {
	c := NewModelCache(100)
	if err := c.Insert("xxl", 101); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("oversized insert = %v, want OOM", err)
	}
}

func TestModelCacheReinsertIsTouch(t *testing.T) {
	c := NewModelCache(100)
	_ = c.Insert("a", 40)
	_ = c.Insert("b", 40)
	_ = c.Insert("a", 40) // touch, not duplicate
	if c.Used() != 80 {
		t.Fatalf("used = %d after re-insert, want 80", c.Used())
	}
	_ = c.Insert("c", 40) // must evict b, the LRU
	if c.Peek("b") || !c.Peek("a") {
		t.Error("re-insert did not refresh LRU position")
	}
}
