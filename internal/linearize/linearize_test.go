package linearize

import (
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
)

// op builds a recorded operation over [call, ret] on key 0.
func op(kind Kind, value int, ok bool, call, ret int64) Op {
	return Op{Kind: kind, Value: value, OK: ok, Call: call, Return: ret}
}

func get(v int, ok bool, call, ret int64) Op { return op(Get, v, ok, call, ret) }
func put(v int, call, ret int64) Op          { return op(Put, v, false, call, ret) }
func del(call, ret int64) Op                 { return op(Delete, 0, false, call, ret) }

// TestCheckSynthetic runs the checker over hand-built histories of one
// key whose verdicts follow from the definition.
func TestCheckSynthetic(t *testing.T) {
	for _, c := range []struct {
		name string
		init map[int]int
		ops  []Op
		ok   bool
	}{
		{"empty", nil, nil, true},
		{"sequential", nil, []Op{put(1, 1, 2), get(1, true, 3, 4), del(5, 6), get(0, false, 7, 8)}, true},
		{"initial value", map[int]int{0: 9}, []Op{get(9, true, 1, 2)}, true},
		{"initial value missed", map[int]int{0: 9}, []Op{get(0, false, 1, 2)}, false},
		// A Get overlapping a Put may see either side of it.
		{"read overlaps write, new", nil, []Op{put(1, 1, 4), get(1, true, 2, 3)}, true},
		{"read overlaps write, old", nil, []Op{put(1, 1, 4), get(0, false, 2, 3)}, true},
		// A Put that returned before the Get was invoked must be seen.
		{"stale read after put", nil, []Op{put(1, 1, 2), get(0, false, 3, 4)}, false},
		{"stale read after overwrite", nil, []Op{put(1, 1, 2), put(2, 3, 4), get(1, true, 5, 6)}, false},
		{"read after delete", nil, []Op{put(1, 1, 2), del(3, 4), get(1, true, 5, 6)}, false},
		{"value never written", nil, []Op{put(1, 1, 2), get(3, true, 3, 4)}, false},
		// Once one read has seen the new value, a read invoked after it
		// returned cannot see the old one: the write is linearized first.
		{"new-old inversion", nil, []Op{put(1, 1, 10), get(1, true, 2, 3), get(0, false, 4, 5)}, false},
		{"old-new order", nil, []Op{put(1, 1, 10), get(0, false, 2, 3), get(1, true, 4, 5)}, true},
		// Two concurrent Puts may land in either order, but every later
		// read agrees on the last one.
		{"concurrent puts, either order", nil, []Op{put(1, 1, 4), put(2, 2, 3), get(1, true, 5, 6), get(1, true, 7, 8)}, true},
		{"concurrent puts, readers disagree", nil, []Op{put(1, 1, 4), put(2, 2, 3), get(1, true, 5, 6), get(2, true, 7, 8)}, false},
		// A delete racing a re-insert: the read between them may see
		// the tombstone only if the delete can go after the put.
		{"delete races reinsert", map[int]int{0: 1}, []Op{del(1, 5), put(2, 2, 3), get(0, false, 6, 7)}, true},
		{"delete before reinsert", map[int]int{0: 1}, []Op{del(1, 2), put(2, 3, 4), get(0, false, 5, 6)}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := Check(c.init, c.ops)
			if (err == nil) != c.ok {
				t.Fatalf("Check = %v, want linearizable=%v", err, c.ok)
			}
		})
	}
}

// TestCheckNamesTheKey checks that keys are judged separately and the
// error names the one that fails.
func TestCheckNamesTheKey(t *testing.T) {
	ops := []Op{
		{Kind: Put, Key: 3, Value: 1, Call: 1, Return: 2},
		{Kind: Get, Key: 3, Value: 1, OK: true, Call: 3, Return: 4},
		{Kind: Put, Key: 7, Value: 1, Call: 5, Return: 6},
		{Kind: Get, Key: 7, Call: 7, Return: 8},
		// Key 8's read of 1 would be fine on key 7's history.
		{Kind: Get, Key: 8, Value: 1, OK: true, Call: 9, Return: 10},
	}
	err := Check(nil, ops)
	if err == nil || !strings.Contains(err.Error(), "key 7 ") {
		t.Fatalf("Check = %v, want key 7 named", err)
	}
	if err := Check(nil, ops[:2]); err != nil {
		t.Fatalf("Check(key 3 alone) = %v", err)
	}
}

// TestCheckRandomSequentialHistories: a history run one operation at a
// time against a plain map is linearizable, and changing one recorded
// Get result to a value the key never held makes it not.
func TestCheckRandomSequentialHistories(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for round := 0; round < 50; round++ {
		model := map[int]int{}
		var ops []Op
		var stamp int64
		for i := 0; i < 60; i++ {
			k := rng.IntN(3)
			o := Op{Key: k, Call: stamp + 1, Return: stamp + 2}
			stamp += 2
			switch rng.IntN(3) {
			case 0:
				o.Kind, o.Value = Put, i
				model[k] = i
			case 1:
				o.Kind = Delete
				delete(model, k)
			default:
				o.Kind = Get
				o.Value, o.OK = model[k]
			}
			ops = append(ops, o)
		}
		if err := Check(nil, ops); err != nil {
			t.Fatalf("round %d: sequential history rejected: %v", round, err)
		}
		for i := range ops {
			if ops[i].Kind == Get {
				ops[i].Value, ops[i].OK = -1, true
				if Check(nil, ops) == nil {
					t.Fatalf("round %d: a Get of a value never written was accepted", round)
				}
				break
			}
		}
	}
}

// lockedMap is a mutex-guarded map: linearizable by construction.
type lockedMap struct {
	mu sync.Mutex
	m  map[int]int
}

func (l *lockedMap) Get(k int) (int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.m[k]
	return v, ok
}
func (l *lockedMap) Put(k, v int) { l.mu.Lock(); l.m[k] = v; l.mu.Unlock() }
func (l *lockedMap) Delete(k int) { l.mu.Lock(); delete(l.m, k); l.mu.Unlock() }

// staleMap serves Gets from a snapshot refreshed only every few writes:
// not linearizable, and the checker must say so for a recorded history.
type staleMap struct {
	lockedMap
	snap   map[int]int
	writes int
}

func (s *staleMap) Get(k int) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.snap[k]
	return v, ok
}

func (s *staleMap) Put(k, v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[k] = v
	if s.writes++; s.writes%4 == 0 {
		s.snap = map[int]int{}
		for k, v := range s.m {
			s.snap[k] = v
		}
	}
}

// TestHistoryRecordsConcurrentRuns records concurrent workers against a
// linearizable map and a stale one.
func TestHistoryRecordsConcurrentRuns(t *testing.T) {
	run := func(m Map) error {
		const workers, ops = 4, 300
		h := NewHistory(workers)
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range ops {
					k := (w + i) % 3
					switch i % 3 {
					case 0:
						h.Put(w, m, k, w<<16|i)
					case 1:
						h.Get(w, m, k)
					default:
						if i%9 == 5 {
							h.Delete(w, m, k)
						} else {
							h.Get(w, m, k)
						}
					}
				}
			}()
		}
		wg.Wait()
		if got := len(h.Ops()); got != workers*ops {
			t.Fatalf("recorded %d operations, want %d", got, workers*ops)
		}
		return Check(nil, h.Ops())
	}
	if err := run(&lockedMap{m: map[int]int{}}); err != nil {
		t.Fatalf("mutex-guarded map: %v", err)
	}
	if err := run(&staleMap{lockedMap: lockedMap{m: map[int]int{}}}); err == nil {
		t.Fatal("snapshot-served map passed the check")
	}
}
