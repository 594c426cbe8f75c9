// Package tasksys implements the Borodin-Linial-Saks task systems of
// Chapter 2: n states, m tasks, a state-transition cost matrix D and a task
// cost matrix C. It provides an optimal off-line solver (dynamic
// programming over the request sequence) and the two-state
// "nearly oblivious" on-line algorithm whose protocol-selection instance is
// the thesis's 3-competitive switching policy (Section 3.4.1).
package tasksys

import (
	"fmt"
	"math"
)

// System is a task system: D[i][j] is the cost of moving from state i to
// state j; C[i][k] is the cost of processing task k in state i.
type System struct {
	D [][]float64
	C [][]float64
}

// New validates and builds a task system.
func New(d, c [][]float64) (*System, error) {
	n := len(d)
	if n == 0 {
		return nil, fmt.Errorf("tasksys: no states")
	}
	for i, row := range d {
		if len(row) != n {
			return nil, fmt.Errorf("tasksys: D row %d has %d entries, want %d", i, len(row), n)
		}
	}
	if len(c) != n {
		return nil, fmt.Errorf("tasksys: C has %d rows, want %d", len(c), n)
	}
	m := len(c[0])
	for i, row := range c {
		if len(row) != m {
			return nil, fmt.Errorf("tasksys: C row %d has %d entries, want %d", i, len(row), m)
		}
	}
	return &System{D: d, C: c}, nil
}

// States returns n, the number of states.
func (s *System) States() int { return len(s.D) }

// OfflineOptimal returns the minimum total cost of serving seq starting in
// state start, for a lookahead-one system (the algorithm may change state
// before serving each request). Standard DP over (position, state).
func (s *System) OfflineOptimal(seq []int, start int) float64 {
	n := s.States()
	cur := make([]float64, n)
	for i := range cur {
		if i == start {
			cur[i] = 0
		} else {
			cur[i] = math.Inf(1)
		}
	}
	next := make([]float64, n)
	for _, task := range seq {
		for j := 0; j < n; j++ {
			best := math.Inf(1)
			for i := 0; i < n; i++ {
				v := cur[i] + s.D[i][j] + s.C[j][task]
				if v < best {
					best = v
				}
			}
			next[j] = best
		}
		cur, next = next, cur
	}
	best := math.Inf(1)
	for _, v := range cur {
		if v < best {
			best = v
		}
	}
	return best
}

// NearlyOblivious is the Borodin-Linial-Saks on-line algorithm for
// two-state task systems: accumulate task cost in the current state; when
// the accumulated cost since entering the state reaches the round-trip
// transition cost D[i][j] + D[j][i], move to the other state (before
// serving the triggering request — lookahead one). It is
// (2n−1) = 3-competitive.
type NearlyOblivious struct {
	sys   *System
	state int
	accum float64
	total float64
}

// NewNearlyOblivious creates the on-line algorithm in state start.
// The system must have exactly two states.
func NewNearlyOblivious(s *System, start int) *NearlyOblivious {
	if s.States() != 2 {
		panic("tasksys: NearlyOblivious requires a two-state system")
	}
	return &NearlyOblivious{sys: s, state: start}
}

// State returns the current state.
func (a *NearlyOblivious) State() int { return a.state }

// Total returns the cost incurred so far.
func (a *NearlyOblivious) Total() float64 { return a.total }

// Serve processes one task (lookahead-one: the state may change first) and
// returns the cost charged for it.
func (a *NearlyOblivious) Serve(task int) float64 {
	other := 1 - a.state
	roundTrip := a.sys.D[a.state][other] + a.sys.D[other][a.state]
	// Would serving this task push the accumulated cost to the bound?
	if a.accum+a.sys.C[a.state][task] >= roundTrip {
		a.total += a.sys.D[a.state][other]
		a.state = other
		a.accum = 0
	}
	cost := a.sys.C[a.state][task]
	a.accum += cost
	a.total += cost
	return cost
}

// ServeAll processes a request sequence and returns the total on-line cost.
func (a *NearlyOblivious) ServeAll(seq []int) float64 {
	for _, t := range seq {
		a.Serve(t)
	}
	return a.total
}

// ProtocolSystem builds the two-protocol task system of Figure 3.13:
// protocol A is optimal under low contention, protocol B under high;
// residual costs cAHigh and cBLow, switching costs dAB and dBA.
// Task 0 = low-contention request, task 1 = high-contention request.
func ProtocolSystem(dAB, dBA, cAHigh, cBLow float64) *System {
	s, err := New(
		[][]float64{{0, dAB}, {dBA, 0}},
		[][]float64{{0, cAHigh}, {cBLow, 0}},
	)
	if err != nil {
		panic(err)
	}
	return s
}

// PollSignalSystem builds the waiting task system of Figure 4.2: state 0 =
// polling, state 1 = signaling; task 0 = wait (one time unit), task 1 =
// proceed. Polling costs 1/beta per wait tick; signaling costs B once (we
// charge it on the transition) and 0 per wait tick; proceeding in the
// signaling state is prohibitively expensive, forcing a return to polling.
func PollSignalSystem(b, beta float64) *System {
	const inf = 1e18
	s, err := New(
		[][]float64{{0, b}, {0, 0}},
		[][]float64{{1 / beta, 0}, {0, inf}},
	)
	if err != nil {
		panic(err)
	}
	return s
}
