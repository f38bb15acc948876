package cache

import "container/list"

// LRU is the byte- and entry-bounded recency list behind both memo layers:
// the stage cache's memory tier and jpgd's hot-artifact cache. Put evicts
// from the least recently used tail while a bound is exceeded, but always
// keeps the newest entry, so one value larger than the byte bound is still
// served. LRU has no lock of its own; each owner guards it with its mutex.
type LRU[V any] struct {
	items      map[Key]*list.Element
	order      *list.List // front = most recently used
	bytes      int64
	maxEntries int   // <= 0: unbounded
	maxBytes   int64 // <= 0: unbounded
}

type lruItem[V any] struct {
	key  Key
	val  V
	size int64
}

// NewLRU returns an empty LRU. A bound <= 0 leaves that axis unbounded.
func NewLRU[V any](maxEntries int, maxBytes int64) *LRU[V] {
	return &LRU[V]{items: map[Key]*list.Element{}, order: list.New(), maxEntries: maxEntries, maxBytes: maxBytes}
}

// Get returns the value stored under k and marks it most recently used.
func (l *LRU[V]) Get(k Key) (v V, ok bool) {
	el, ok := l.items[k]
	if !ok {
		return v, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruItem[V]).val, true
}

// Put stores v under k as the most recently used entry, replacing any
// previous value and its caller-supplied size, then evicts from the tail
// while over a bound. It returns the number of entries evicted.
func (l *LRU[V]) Put(k Key, v V, size int64) (evicted int) {
	if el, ok := l.items[k]; ok {
		it := el.Value.(*lruItem[V])
		l.bytes += size - it.size
		it.val, it.size = v, size
		l.order.MoveToFront(el)
	} else {
		l.items[k] = l.order.PushFront(&lruItem[V]{key: k, val: v, size: size})
		l.bytes += size
	}
	for l.order.Len() > 1 && (l.maxEntries > 0 && l.order.Len() > l.maxEntries || l.maxBytes > 0 && l.bytes > l.maxBytes) {
		l.remove(l.order.Back())
		evicted++
	}
	return evicted
}

// Remove drops k if present.
func (l *LRU[V]) Remove(k Key) {
	if el, ok := l.items[k]; ok {
		l.remove(el)
	}
}

func (l *LRU[V]) remove(el *list.Element) {
	it := l.order.Remove(el).(*lruItem[V])
	delete(l.items, it.key)
	l.bytes -= it.size
}

// Len returns the number of resident entries.
func (l *LRU[V]) Len() int { return l.order.Len() }

// Bytes returns the summed sizes of the resident entries.
func (l *LRU[V]) Bytes() int64 { return l.bytes }
