// Package lru is the bounded least-recently-used map behind every cache
// in the program: the build artifact cache, the service's result cache
// and its branch-snapshot cache. It does not lock itself; each owner
// guards it with the mutex that already protects the state around it.
package lru

import "container/list"

// Cache maps keys to values, holding at most its capacity and evicting
// the least recently used entry beyond that. Create one with New.
type Cache[K comparable, V any] struct {
	cap   int
	ll    *list.List // front = most recently used; values are *entry[K, V]
	items map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache bounded to capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{cap: capacity, ll: list.New(), items: make(map[K]*list.Element)}
}

// Get returns the value for key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Add inserts key (or replaces its value), marks it most recently used
// and returns how many entries were evicted to stay within capacity.
func (c *Cache[K, V]) Add(key K, val V) (evicted int) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.ll.MoveToFront(el)
		return 0
	}
	c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[K, V]).key)
		evicted++
	}
	return evicted
}

// Remove drops key if present.
func (c *Cache[K, V]) Remove(key K) {
	if el, ok := c.items[key]; ok {
		c.ll.Remove(el)
		delete(c.items, key)
	}
}

// Len returns the number of entries.
func (c *Cache[K, V]) Len() int { return c.ll.Len() }

// Purge drops every entry.
func (c *Cache[K, V]) Purge() {
	c.ll.Init()
	clear(c.items)
}
