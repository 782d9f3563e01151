package lru

import "testing"

func TestLRUCacheEviction(t *testing.T) {
	c := New[string, int](2)

	if ev := c.Add("a", 1); ev != 0 {
		t.Fatalf("add a evicted %d", ev)
	}
	c.Add("b", 2)
	if got, ok := c.Get("a"); !ok || got != 1 { // touch "a": "b" becomes LRU
		t.Fatalf("get a = %d, %v", got, ok)
	}
	if ev := c.Add("c", 3); ev != 1 {
		t.Fatalf("add c evicted %d, want 1", ev)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if a, _ := c.Get("a"); a != 1 {
		t.Fatal("recently used entry a was evicted")
	}
	if v, _ := c.Get("c"); v != 3 {
		t.Fatal("recently used entry c was evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}

	// Refreshing an existing key replaces the value without eviction.
	if ev := c.Add("a", 10); ev != 0 {
		t.Fatalf("refresh evicted %d", ev)
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("refresh: got %d, want 10", v)
	}
	c.Remove("a")
	if _, ok := c.Get("a"); ok || c.Len() != 1 {
		t.Fatal("remove did not drop the entry")
	}
	c.Remove("a") // absent: no-op

	c.Purge()
	if _, ok := c.Get("c"); ok || c.Len() != 0 {
		t.Fatal("purge left entries behind")
	}
	c.Add("d", 4)
	c.Add("e", 5)
	if ev := c.Add("f", 6); ev != 1 || c.Len() != 2 {
		t.Fatalf("after purge: evicted=%d len=%d, want 1 and 2", ev, c.Len())
	}
}

func TestLRUCacheSizeBound(t *testing.T) {
	c := NewSized[string, string](10, 6, func(v string) int64 { return int64(len(v)) })
	c.Add("a", "aa")
	c.Add("b", "bb")
	c.Get("a") // "b" becomes LRU
	if ev := c.Add("c", "ccc"); ev != 1 || c.Size() != 5 {
		t.Fatalf("add c: evicted %d, size %d, want 1 and 5", ev, c.Size())
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry b survived the size bound")
	}
	// Replacing a value re-weighs it and evicts what no longer fits.
	if ev := c.Add("c", "ccccc"); ev != 1 || c.Size() != 5 || c.Len() != 1 {
		t.Fatalf("grow c: evicted %d, size %d, len %d, want 1, 5, 1", ev, c.Size(), c.Len())
	}
	// A value over the whole bound does not stay.
	if ev := c.Add("d", "ddddddd"); ev != 2 || c.Len() != 0 || c.Size() != 0 {
		t.Fatalf("oversized d: evicted %d, len %d, size %d, want 2, 0, 0", ev, c.Len(), c.Size())
	}
	c.Add("e", "e")
	c.Remove("e")
	c.Add("f", "ff")
	c.Purge()
	if c.Size() != 0 || c.Len() != 0 {
		t.Fatalf("after purge: size %d, len %d", c.Size(), c.Len())
	}
	// The entry bound still holds on a sized cache.
	c = NewSized[string, string](2, 100, func(v string) int64 { return int64(len(v)) })
	c.Add("x", "x")
	c.Add("y", "y")
	if ev := c.Add("z", "z"); ev != 1 || c.Size() != 2 {
		t.Fatalf("entry bound: evicted %d, size %d, want 1 and 2", ev, c.Size())
	}
}
