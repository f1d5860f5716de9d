package main

import (
	"fmt"

	"cbws/internal/mem"
	"cbws/internal/prefetch"
)

// opKind is one call a prefetcher received, or one line it issued.
type opKind uint8

const (
	opAccess opKind = iota // OnAccess
	opBegin                // OnBlockBegin
	opEnd                  // OnBlockEnd
	opEvict                // OnCacheEvict
	opIssue                // a line the prefetcher issued
)

// op is one element of a recorded call stream, in the order it
// happened. Issued lines follow the call that issued them. An eviction
// the hierarchy reported while a prefetch was being issued (an L2 fill
// back-invalidating an L1 line) is nested: it follows the issued line
// that caused it, inside the issuing call.
type op struct {
	kind   opKind
	nested bool
	id     int
	line   mem.LineAddr
	a      prefetch.Access
}

// recorder wraps a prefetcher passed to sim.RunContext and records
// every call it receives and every line it issues.
type recorder struct {
	inner prefetch.Prefetcher
	ops   []op
	depth int
	down  prefetch.IssueFunc
	issue prefetch.IssueFunc
}

// evictRecorder is a recorder that is also a prefetch.EvictionObserver;
// the simulator wires evictions only to members that observe them, so
// the wrapper must observe them exactly when the wrapped member does.
type evictRecorder struct{ *recorder }

// newRecorder wraps p for recording.
func newRecorder(p prefetch.Prefetcher) (prefetch.Prefetcher, *recorder) {
	r := &recorder{inner: p}
	r.issue = func(l mem.LineAddr) {
		r.ops = append(r.ops, op{kind: opIssue, line: l})
		r.down(l)
	}
	if _, ok := p.(prefetch.EvictionObserver); ok {
		return evictRecorder{r}, r
	}
	return r, r
}

func (r *recorder) Name() string        { return r.inner.Name() }
func (r *recorder) StorageBits() uint64 { return r.inner.StorageBits() }
func (r *recorder) Reset()              { r.inner.Reset() }

func (r *recorder) OnAccess(a prefetch.Access, issue prefetch.IssueFunc) {
	r.ops = append(r.ops, op{kind: opAccess, a: a})
	r.down = issue
	r.depth++
	r.inner.OnAccess(a, r.issue)
	r.depth--
}

func (r *recorder) OnBlockBegin(id int) {
	r.ops = append(r.ops, op{kind: opBegin, id: id})
	r.inner.OnBlockBegin(id)
}

func (r *recorder) OnBlockEnd(id int, issue prefetch.IssueFunc) {
	r.ops = append(r.ops, op{kind: opEnd, id: id})
	r.down = issue
	r.depth++
	r.inner.OnBlockEnd(id, r.issue)
	r.depth--
}

func (e evictRecorder) OnCacheEvict(l mem.LineAddr) {
	e.ops = append(e.ops, op{kind: opEvict, line: l, nested: e.depth > 0})
	e.inner.(prefetch.EvictionObserver).OnCacheEvict(l)
}

// streamStats counts a recorded stream.
type streamStats struct {
	calls  int // every call the prefetcher received
	issued int // lines it issued
}

func countOps(ops []op) streamStats {
	var s streamStats
	for i := range ops {
		if ops[i].kind == opIssue {
			s.issued++
		} else {
			s.calls++
		}
	}
	return s
}

// The replay target's methods. A production member has all of them;
// the naive reference models in internal/check have only those their
// scheme uses (the production methods they lack are no-ops).
type (
	accessTarget interface {
		OnAccess(prefetch.Access, prefetch.IssueFunc)
	}
	beginTarget interface{ OnBlockBegin(int) }
	endTarget   interface {
		OnBlockEnd(int, prefetch.IssueFunc)
	}
)

// replayer feeds a recorded stream to a target and checks, line by
// line, that it issues exactly the recorded lines.
type replayer struct {
	ops   []op
	pos   int
	err   error
	evict func(mem.LineAddr)
	issue prefetch.IssueFunc
}

// replay feeds ops to t and returns the first divergence.
func replay(ops []op, t accessTarget) error {
	rp := &replayer{ops: ops}
	if eo, ok := t.(prefetch.EvictionObserver); ok {
		rp.evict = eo.OnCacheEvict
	}
	rp.issue = rp.issued
	begin, _ := t.(beginTarget)
	end, _ := t.(endTarget)
	for rp.pos < len(ops) && rp.err == nil {
		o := &ops[rp.pos]
		rp.pos++
		switch o.kind {
		case opAccess:
			t.OnAccess(o.a, rp.issue)
		case opBegin:
			if begin != nil {
				begin.OnBlockBegin(o.id)
			}
		case opEnd:
			if end != nil {
				end.OnBlockEnd(o.id, rp.issue)
			}
		case opEvict:
			if rp.evict != nil {
				rp.evict(o.line)
			}
		case opIssue:
			rp.err = fmt.Errorf("op %d: recorded line %#x was not issued", rp.pos-1, uint64(o.line))
		}
	}
	return rp.err
}

// issued checks one issued line against the stream and plays the
// evictions nested after it.
func (rp *replayer) issued(l mem.LineAddr) {
	if rp.err != nil {
		return
	}
	if rp.pos >= len(rp.ops) || rp.ops[rp.pos].kind != opIssue || rp.ops[rp.pos].line != l {
		rp.err = fmt.Errorf("op %d: issued line %#x that the recording does not have", rp.pos, uint64(l))
		return
	}
	rp.pos++
	for rp.pos < len(rp.ops) && rp.ops[rp.pos].kind == opEvict && rp.ops[rp.pos].nested {
		if rp.evict != nil {
			rp.evict(rp.ops[rp.pos].line)
		}
		rp.pos++
	}
}
