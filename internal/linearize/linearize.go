// Package linearize records concurrent histories of a map's Get, Put
// and Delete and checks them for linearizability (Herlihy & Wing, 1990):
// whether every operation can be given one instant between its
// invocation and its return such that the operations, run one at a time
// in that order, return what they returned.
//
// A History stamps each operation's invocation and return from one
// shared counter, so "a returned before b was invoked" is exact. Check
// splits the history by key. Linearizability is local — a history of
// several objects is linearizable iff each object's sub-history is — and
// one key of a map is a register with delete, so each key is checked on
// its own by the Wing–Gong search with Lowe's memoization (WGL): a
// depth-first search over which pending operation to linearize next,
// pruned by a cache of (linearized set, register state) pairs already
// explored. The search is exhaustive, so a nil result is a proof for the
// recorded history, not a sample.
//
// Len and Range are weakly consistent by contract and are not recorded.
package linearize

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync/atomic"
)

// Kind is an operation's type.
type Kind uint8

const (
	Get Kind = iota
	Put
	Delete
)

func (k Kind) String() string { return [...]string{"Get", "Put", "Delete"}[k] }

// Op is one completed operation. Value is what a Put stored or what a
// Get returned; OK is whether the Get found a value.
type Op struct {
	Kind         Kind
	Key, Value   int
	OK           bool
	Call, Return int64
}

func (o Op) String() string {
	switch o.Kind {
	case Get:
		return fmt.Sprintf("[%d,%d] Get(%d) = %d,%v", o.Call, o.Return, o.Key, o.Value, o.OK)
	case Put:
		return fmt.Sprintf("[%d,%d] Put(%d, %d)", o.Call, o.Return, o.Key, o.Value)
	}
	return fmt.Sprintf("[%d,%d] Delete(%d)", o.Call, o.Return, o.Key)
}

// Map is the surface a History records; reactive.Map[int, int] has it.
type Map interface {
	Get(key int) (int, bool)
	Put(key, val int)
	Delete(key int)
}

// History is a set of per-worker operation logs stamped by one clock.
// Worker w's log is appended only by the goroutine that passes w, so
// recording takes no lock; the clock is one atomic counter.
type History struct {
	clock atomic.Int64
	logs  [][]Op
}

// NewHistory returns an empty history for workers 0..workers-1.
func NewHistory(workers int) *History { return &History{logs: make([][]Op, workers)} }

func (h *History) now() int64 { return h.clock.Add(1) }

// Get runs m.Get(key) as worker w and records it.
func (h *History) Get(w int, m Map, key int) (int, bool) {
	call := h.now()
	v, ok := m.Get(key)
	h.logs[w] = append(h.logs[w], Op{Kind: Get, Key: key, Value: v, OK: ok, Call: call, Return: h.now()})
	return v, ok
}

// Put runs m.Put(key, val) as worker w and records it.
func (h *History) Put(w int, m Map, key, val int) {
	call := h.now()
	m.Put(key, val)
	h.logs[w] = append(h.logs[w], Op{Kind: Put, Key: key, Value: val, Call: call, Return: h.now()})
}

// Delete runs m.Delete(key) as worker w and records it.
func (h *History) Delete(w int, m Map, key int) {
	call := h.now()
	m.Delete(key)
	h.logs[w] = append(h.logs[w], Op{Kind: Delete, Key: key, Call: call, Return: h.now()})
}

// Ops returns every recorded operation. Call it after the workers have
// joined.
func (h *History) Ops() []Op { return slices.Concat(h.logs...) }

// Check reports whether ops is a linearizable history of a map that
// held init when the first operation was invoked: nil if every key's
// sub-history is, else an error naming the first key (in key order)
// whose sub-history has no linearization, with its operations.
func Check(init map[int]int, ops []Op) error {
	byKey := map[int][]Op{}
	for _, o := range ops {
		byKey[o.Key] = append(byKey[o.Key], o)
	}
	for _, k := range slices.Sorted(maps.Keys(byKey)) {
		v, ok := init[k]
		sub := byKey[k]
		if !linearizable(register{ok, v}, sub) {
			slices.SortFunc(sub, func(a, b Op) int { return cmp.Compare(a.Call, b.Call) })
			var b strings.Builder
			for i, o := range sub {
				if i == 40 {
					fmt.Fprintf(&b, "\n\t... %d more", len(sub)-i)
					break
				}
				fmt.Fprintf(&b, "\n\t%v", o)
			}
			return fmt.Errorf("linearize: key %d (initially %d,%v): %d operations have no linearization:%s", k, v, ok, len(sub), b.String())
		}
	}
	return nil
}

// register is one key's state: whether it holds a value, and which.
type register struct {
	present bool
	value   int
}

// apply runs o on r, reporting the state after it and whether o's
// recorded result is what it returns from r.
func (r register) apply(o Op) (register, bool) {
	switch o.Kind {
	case Put:
		return register{true, o.Value}, true
	case Delete:
		return register{}, true
	}
	return r, o.OK == r.present && (!o.OK || o.Value == r.value)
}

// entry is one invocation or return event in the search's event list.
type entry struct {
	op         int
	call       bool
	match      *entry // a call's return
	prev, next *entry
}

// lift unlinks a call and its return: the operation is linearized.
func (e *entry) lift() {
	e.prev.next = e.next
	e.next.prev = e.prev
	m := e.match
	m.prev.next = m.next
	if m.next != nil {
		m.next.prev = m.prev
	}
}

// unlift relinks what lift unlinked, in reverse order.
func (e *entry) unlift() {
	m := e.match
	m.prev.next = m
	if m.next != nil {
		m.next.prev = m
	}
	e.prev.next = e
	e.next.prev = e
}

// linearizable is the WGL search over one register's history from init.
// The list holds the events not yet linearized, in stamp order. At a
// call, the search tries to linearize that operation next; it may only
// pass a call (try a later one first), never a return, since an
// operation that returned must be linearized before anything invoked
// after it. A dead end backtracks the last choice.
func linearizable(init register, ops []Op) bool {
	events := make([]*entry, 0, 2*len(ops))
	for i := range ops {
		r := &entry{op: i}
		events = append(events, &entry{op: i, call: true, match: r}, r)
	}
	stamp := func(e *entry) int64 {
		if e.call {
			return ops[e.op].Call
		}
		return ops[e.op].Return
	}
	slices.SortFunc(events, func(a, b *entry) int { return cmp.Compare(stamp(a), stamp(b)) })
	head := &entry{}
	prev := head
	for _, e := range events {
		prev.next, e.prev = e, prev
		prev = e
	}

	type frame struct {
		e     *entry
		state register
	}
	var stack []frame
	done := make([]uint64, (len(ops)+63)/64)
	seen := map[string]bool{}
	key := func(r register) string {
		b := make([]byte, 0, 8*len(done)+9)
		for _, w := range done {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		if r.present {
			b = append(b, 1)
			b = binary.LittleEndian.AppendUint64(b, uint64(r.value))
		}
		return string(b)
	}
	state, e := init, head.next
	for head.next != nil {
		if e.call {
			if next, ok := state.apply(ops[e.op]); ok {
				done[e.op/64] |= 1 << (e.op % 64)
				if k := key(next); !seen[k] {
					seen[k] = true
					stack = append(stack, frame{e, state})
					state = next
					e.lift()
					e = head.next
					continue
				}
				done[e.op/64] &^= 1 << (e.op % 64)
			}
			e = e.next
			continue
		}
		if len(stack) == 0 {
			return false
		}
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		state = f.state
		done[f.e.op/64] &^= 1 << (f.e.op % 64)
		f.e.unlift()
		e = f.e.next
	}
	return true
}
