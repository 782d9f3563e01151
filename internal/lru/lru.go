// Package lru is the bounded least-recently-used map behind every cache
// in the program: the build artifact cache, the service's result cache
// and its branch-snapshot cache. It does not lock itself; each owner
// guards it with the mutex that already protects the state around it.
package lru

import "container/list"

// Cache maps keys to values, holding at most its capacity and evicting
// the least recently used entry beyond that. Create one with New, or
// with NewSized to bound the total size of the values too.
type Cache[K comparable, V any] struct {
	cap   int
	ll    *list.List // front = most recently used; values are *entry[K, V]
	items map[K]*list.Element
	// size, when set, weighs each value as it is added; the cache then
	// also evicts until the weights total at most maxSize.
	size    func(V) int64
	maxSize int64
	total   int64
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

// New returns an empty cache bounded to capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{cap: capacity, ll: list.New(), items: make(map[K]*list.Element)}
}

// NewSized returns an empty cache bounded to capacity entries and to
// values whose sizes, as size weighs them, total at most maxSize.
func NewSized[K comparable, V any](capacity int, maxSize int64, size func(V) int64) *Cache[K, V] {
	c := New[K, V](capacity)
	c.size, c.maxSize = size, maxSize
	return c
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
// and returns how many entries were evicted to stay within the bounds.
// A value larger than the whole size bound is evicted at once.
func (c *Cache[K, V]) Add(key K, val V) (evicted int) {
	var size int64
	if c.size != nil {
		size = c.size(val)
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry[K, V])
		c.total += size - e.size
		e.val, e.size = val, size
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val, size: size})
		c.total += size
	}
	for c.ll.Len() > c.cap || c.total > c.maxSize {
		c.remove(c.ll.Back())
		evicted++
	}
	return evicted
}

// Remove drops key if present.
func (c *Cache[K, V]) Remove(key K) {
	if el, ok := c.items[key]; ok {
		c.remove(el)
	}
}

func (c *Cache[K, V]) remove(el *list.Element) {
	e := c.ll.Remove(el).(*entry[K, V])
	delete(c.items, e.key)
	c.total -= e.size
}

// Size returns the total size of the cached values (0 unless sized).
func (c *Cache[K, V]) Size() int64 { return c.total }

// Len returns the number of entries.
func (c *Cache[K, V]) Len() int { return c.ll.Len() }

// Purge drops every entry.
func (c *Cache[K, V]) Purge() {
	c.ll.Init()
	clear(c.items)
	c.total = 0
}
