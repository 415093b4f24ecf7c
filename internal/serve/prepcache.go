package serve

import (
	"sync"

	mpmb "github.com/uncertain-graphs/mpmb"
)

// graphEntry is one cached graph with its query-serving Searcher. ready
// closes when the load finishes; afterwards the remaining fields are
// immutable. Jobs running against an entry hold it directly, so LRU
// eviction only drops the cache's reference — in-flight work is safe.
type graphEntry struct {
	ready    chan struct{}
	path     string
	searcher *mpmb.Searcher
	fp       uint32 // bigraph checksum — the graph fingerprint
	err      error
}

// graphCache loads graphs on demand and shares one Searcher per distinct
// graph CONTENT: entries are keyed by path for lookup, but once loaded
// they are deduplicated by fingerprint, so two graph names with
// identical bytes share a Searcher — and through it the single-flighted
// prep-candidate cache. Loads are single-flighted per path; capacity is
// bounded with least-recently-used eviction.
type graphCache struct {
	root string
	size int

	mu     sync.Mutex
	byPath map[string]*graphEntry
	byFP   map[uint32]*graphEntry
	order  []string // LRU order, oldest first
}

func newGraphCache(root string, size int) *graphCache {
	return &graphCache{
		root:   root,
		size:   size,
		byPath: make(map[string]*graphEntry),
		byFP:   make(map[uint32]*graphEntry),
	}
}

// get returns the entry for path, loading it if needed. Concurrent
// callers for one path share a single load.
func (c *graphCache) get(path string) (*graphEntry, error) {
	c.mu.Lock()
	e, ok := c.byPath[path]
	if ok {
		c.touch(path)
		c.mu.Unlock()
		<-e.ready
		return e, e.err
	}
	e = &graphEntry{ready: make(chan struct{}), path: path}
	c.byPath[path] = e
	c.touch(path)
	c.mu.Unlock()

	g, err := mpmb.LoadGraph(path)
	c.mu.Lock()
	if err != nil {
		e.err = err
		// Failed loads must not poison the path: evict so a later call
		// retries (a fixed file, a transient read error).
		if c.byPath[path] == e {
			c.dropLocked(path)
		}
	} else {
		fp := g.Checksum()
		if twin, ok := c.byFP[fp]; ok && twin != e {
			// Same bytes under another name: share its Searcher so the
			// prep-candidate cache is shared too.
			e.searcher, e.fp = twin.searcher, fp
		} else {
			e.searcher, e.fp = mpmb.NewSearcher(g), fp
			c.byFP[fp] = e
		}
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.ready)
	return e, e.err
}

// touch moves path to the most-recently-used end.
func (c *graphCache) touch(path string) {
	for i, p := range c.order {
		if p == path {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.order = append(c.order, path)
}

func (c *graphCache) dropLocked(path string) {
	e := c.byPath[path]
	delete(c.byPath, path)
	if e != nil && c.byFP[e.fp] == e {
		delete(c.byFP, e.fp)
	}
	for i, p := range c.order {
		if p == path {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}

// evictLocked drops least-recently-used entries beyond capacity.
func (c *graphCache) evictLocked() {
	for len(c.byPath) > c.size && len(c.order) > 0 {
		c.dropLocked(c.order[0])
	}
}
