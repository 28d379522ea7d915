package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder was created. Op is the identifier all
// spans of one client operation share (0: recorded between operations,
// e.g. a health probe); Parent is filled in by link.
type span struct {
	ID     int
	Parent int
	Op     int64
	Name   string
	Start  int64
	End    int64
}

// recorder keeps spans in memory for the length of a traced run. The
// driver has one client operation in flight at a time, so the
// operation's id is a single shared value: every layer that records a
// span while it is set belongs to that operation, whichever goroutine
// it runs on (a server handler, the replication sender, a tier write).
type recorder struct {
	t0 time.Time
	op atomic.Int64

	mu    sync.Mutex
	spans []span
	floor int // spans below this index were dropped by reset
	nops  int64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<18)}
}

// reset drops every span recorded so far. They stay in place, so the id
// of one still open remains valid for end.
func (r *recorder) reset() {
	r.mu.Lock()
	r.floor = len(r.spans)
	r.mu.Unlock()
}

// begin opens a span and returns its id for end.
func (r *recorder) begin(name string) int {
	start := int64(time.Since(r.t0))
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: -1, Op: r.op.Load(), Name: name, Start: start, End: -1})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	end := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = end
	r.mu.Unlock()
}

// beginOp starts a client operation: the root span of a new op id.
func (r *recorder) beginOp(name string) int {
	r.mu.Lock()
	r.nops++
	op := r.nops
	r.mu.Unlock()
	r.op.Store(op)
	return r.begin(name)
}

func (r *recorder) endOp(id int) {
	r.end(id)
	r.op.Store(0)
}

// finished returns the closed spans; one still open when the run ends
// (a probe in flight at shutdown) has no duration to attribute.
func (r *recorder) finished() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans)-r.floor)
	for _, s := range r.spans[r.floor:] {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// link sets each span's Parent to the innermost span of the same
// operation whose interval contains it (-1 for an operation's root and
// for spans outside any operation). Nesting is by containment because
// parent and child run on different goroutines: a server handler is
// inside the client call that caused it, a peer's replica apply inside
// the origin's handler.
func link(spans []span) {
	byOp := map[int64][]int{}
	for i, s := range spans {
		if s.Op != 0 {
			byOp[s.Op] = append(byOp[s.Op], i)
		}
	}
	for _, idx := range byOp {
		sort.Slice(idx, func(a, b int) bool {
			x, y := spans[idx[a]], spans[idx[b]]
			if x.Start != y.Start {
				return x.Start < y.Start
			}
			if x.End != y.End {
				return x.End > y.End
			}
			return x.ID < y.ID
		})
		var stack []int
		for _, i := range idx {
			for len(stack) > 0 && spans[stack[len(stack)-1]].End < spans[i].End {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				spans[i].Parent = spans[stack[len(stack)-1]].ID
			}
			stack = append(stack, i)
		}
	}
}

// selfTimes returns, per span id, the span's duration minus the part of
// it that its direct children cover; children that overlap each other
// are counted once.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered, hi int64
		hi = s.Start
		for _, k := range kids {
			lo, end := k.Start, k.End
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// breakdown is the per-layer account of a traced run: for each kind of
// client operation (the root span's name), how many there were, their
// total time, and the self time of every span name beneath them.
type breakdown struct {
	ops     map[string]int
	opNanos map[string]int64
	self    map[string]map[string]int64 // op name -> span name -> self ns
	count   map[string]map[string]int   // op name -> span name -> spans
	dur     map[string][]float64        // span name -> durations, µs

	// What the cold tier adds to a server handler, from handlers that
	// touched the tier backend against those that did not: the extra
	// self time of a spilling logged put (encode, seal, manifest, the
	// name x version rescan — backend time excluded), and the extra
	// duration of a promoting get (backend time included).
	spillSelfUs, promoteUs       float64
	spillHandles, promoteHandles int
}

func analyze(spans []span) breakdown {
	link(spans)
	self := selfTimes(spans)
	b := breakdown{
		ops: map[string]int{}, opNanos: map[string]int64{},
		self: map[string]map[string]int64{}, count: map[string]map[string]int{},
		dur: map[string][]float64{},
	}
	tiered := map[int]bool{} // span id -> a tier backend call ran directly beneath it
	for _, s := range spans {
		if s.Parent >= 0 && strings.HasPrefix(s.Name, "pfs:") {
			tiered[s.Parent] = true
		}
	}
	put, get := map[bool]*tally{true: {}, false: {}}, map[bool]*tally{true: {}, false: {}}
	// An operation's root is the span the driver opened around the
	// client call; its name starts with "op:".
	rootOf := map[int64]string{}
	for _, s := range spans {
		if s.Parent < 0 && isOp(s) {
			rootOf[s.Op] = s.Name
		}
	}
	for _, s := range spans {
		b.dur[s.Name] = append(b.dur[s.Name], float64(s.End-s.Start)/1e3)
		root, ok := rootOf[s.Op]
		if !ok {
			continue
		}
		switch {
		case s.Parent >= 0:
		case isOp(s):
			b.ops[root]++
			b.opNanos[root] += s.End - s.Start
		default:
			// Started inside the operation but outlived it (a probe that
			// overlapped its end): not part of the operation's time.
			continue
		}
		if b.self[root] == nil {
			b.self[root] = map[string]int64{}
			b.count[root] = map[string]int{}
		}
		b.self[root][s.Name] += self[s.ID]
		b.count[root][s.Name]++
		switch {
		case s.Name == "handle:PutReq" && root == "op:put.logged":
			put[tiered[s.ID]].add(float64(self[s.ID]) / 1e3)
		case s.Name == "handle:GetReq" && root != "op:get.unlogged":
			get[tiered[s.ID]].add(float64(s.End-s.Start) / 1e3)
		}
	}
	if put[true].n > 0 && put[false].n > 0 {
		b.spillSelfUs, b.spillHandles = put[true].mean()-put[false].mean(), put[true].n
	}
	if get[true].n > 0 && get[false].n > 0 {
		b.promoteUs, b.promoteHandles = get[true].mean()-get[false].mean(), get[true].n
	}
	return b
}

// tally is a running mean.
type tally struct {
	sum float64
	n   int
}

func (t *tally) add(x float64) { t.sum += x; t.n++ }
func (t *tally) mean() float64 { return ratio(t.sum, float64(t.n)) }

func isOp(s span) bool { return s.Op != 0 && strings.HasPrefix(s.Name, "op:") }

// perOpMicros is the mean self time of span name per operation of kind
// op, in microseconds.
func (b breakdown) perOpMicros(op, name string) float64 {
	return ratio(float64(b.self[op][name])/1e3, float64(b.ops[op]))
}

// unattributed is the share of operation time that the self times of
// the spans beneath the operations do not add up to: 0 when every span
// nests cleanly, above it when concurrent spans (a health probe landing
// inside a put) broke the nesting.
func (b breakdown) unattributed() float64 {
	var opTotal, selfTotal int64
	for op, ns := range b.opNanos {
		opTotal += ns
		for _, v := range b.self[op] {
			selfTotal += v
		}
	}
	d := opTotal - selfTotal
	if d < 0 {
		d = -d
	}
	return ratio(float64(d), float64(opTotal))
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"op_id":%d,"name":%q,"start":%d,"end":%d}`+"\n",
			s.ID, s.Parent, s.Op, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
