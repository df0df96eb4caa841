package serve

import (
	"container/list"
	"sync"
)

// digest is the SHA-256 of a request's endpoint tag, a separator and its
// raw body bytes: the address of one exact spelling of a document.
type digest [32]byte

// aliasesPerEntry bounds the raw-body digests one cache entry keeps; a
// further spelling of the same document drops the entry's oldest alias.
const aliasesPerEntry = 4

// lruCache is a fixed-capacity LRU over encoded response bodies, keyed by
// the v1 canonical request hash. Values are immutable byte slices, so a
// cached body is served verbatim without copying.
//
// Besides its canonical key, an entry is reachable through up to
// aliasesPerEntry digests of raw request bodies that compiled to that key.
// The aliases live and die with their entry: evicting the entry deletes
// them, so an alias never outlives its key or points at a stale body.
type lruCache struct {
	mu        sync.Mutex
	cap       int
	order     *list.List // front = most recent
	entries   map[string]*list.Element
	aliases   map[digest]*list.Element
	evictions int64
}

type lruEntry struct {
	key  string
	body []byte
	// aliases[:nAliases] are the entry's digests, oldest first.
	aliases  [aliasesPerEntry]digest
	nAliases int
}

// newLRUCache returns a cache holding at most capacity entries; a
// non-positive capacity disables caching (every Get misses, Put is a
// no-op).
func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
		aliases: make(map[digest]*list.Element),
	}
}

// Alias returns the body cached for the document whose raw bytes hashed
// to d, and marks its entry most recently used.
func (c *lruCache) Alias(d digest) (body []byte, ok bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.aliases[d]
	if ok {
		c.order.MoveToFront(el)
		body = el.Value.(*lruEntry).body
	}
	c.mu.Unlock()
	return body, ok
}

// Get returns the cached body for key and marks it most recently used.
// On a hit, a non-nil alias is attached to the entry.
func (c *lruCache) Get(key string, alias *digest) ([]byte, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	c.attach(el, alias)
	return el.Value.(*lruEntry).body, true
}

// Put stores body under key, attaches a non-nil alias to the entry, and
// evicts the least recently used entries, with their aliases, while the
// cache is over capacity.
func (c *lruCache) Put(key string, body []byte, alias *digest) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if ok {
		el.Value.(*lruEntry).body = body
		c.order.MoveToFront(el)
	} else {
		el = c.order.PushFront(&lruEntry{key: key, body: body})
		c.entries[key] = el
	}
	c.attach(el, alias)
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		e := last.Value.(*lruEntry)
		delete(c.entries, e.key)
		for _, d := range e.aliases[:e.nAliases] {
			delete(c.aliases, d)
		}
		c.evictions++
	}
}

// attach makes alias (if non-nil and new) lead to el, dropping el's
// oldest alias when it already has aliasesPerEntry. A known digest is
// left alone: a document's bytes always compile to the same key, so it
// already leads to el. The caller holds c.mu.
func (c *lruCache) attach(el *list.Element, alias *digest) {
	if alias == nil {
		return
	}
	if _, ok := c.aliases[*alias]; ok {
		return
	}
	e := el.Value.(*lruEntry)
	if e.nAliases == aliasesPerEntry {
		delete(c.aliases, e.aliases[0])
		copy(e.aliases[:], e.aliases[1:])
		e.nAliases--
	}
	e.aliases[e.nAliases] = *alias
	e.nAliases++
	c.aliases[*alias] = el
}

// Stats returns the current size, capacity and eviction count.
func (c *lruCache) Stats() (entries, capacity int, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len(), c.cap, c.evictions
}
