package storage

import "container/list"

// Pool is an LRU buffer pool over a Pager. Requests for cached pages are
// hits (no physical read); misses evict the least recently used frame.
// The pool is not safe for concurrent use; wrap externally if needed.
type Pool struct {
	pager    *Pager
	capacity int
	frames   map[int64]*list.Element // page id → LRU element
	lru      *list.List              // front = most recently used
	requests int64
	hits     int64
}

type frame struct {
	pid int64
	buf []byte
}

// NewPool creates a buffer pool holding up to capacity pages (minimum 1).
func NewPool(p *Pager, capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	return &Pool{
		pager:    p,
		capacity: capacity,
		frames:   make(map[int64]*list.Element, capacity),
		lru:      list.New(),
	}
}

// Page returns the contents of page pid. The returned slice is owned by
// the pool and valid until the page is evicted; callers must not modify
// it and should copy anything they keep.
func (p *Pool) Page(pid int64) ([]byte, error) {
	p.requests++
	if el, ok := p.frames[pid]; ok {
		p.hits++
		p.lru.MoveToFront(el)
		return el.Value.(*frame).buf, nil
	}
	var buf []byte
	if p.lru.Len() >= p.capacity {
		// Reuse the evicted frame's buffer.
		back := p.lru.Back()
		victim := back.Value.(*frame)
		delete(p.frames, victim.pid)
		p.lru.Remove(back)
		buf = victim.buf
	} else {
		buf = make([]byte, PageSize)
	}
	if err := p.pager.ReadPage(pid, buf); err != nil {
		return nil, err
	}
	p.frames[pid] = p.lru.PushFront(&frame{pid: pid, buf: buf})
	return buf, nil
}

// Stats returns the logical page requests, cache hits, and physical reads
// since the pool was created.
func (p *Pool) Stats() (requests, hits, physicalReads int64) {
	return p.requests, p.hits, p.pager.Reads()
}

// Drop empties the pool, forcing subsequent requests to hit the pager.
func (p *Pool) Drop() {
	p.frames = make(map[int64]*list.Element, p.capacity)
	p.lru.Init()
}
