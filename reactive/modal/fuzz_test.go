package modal

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/reactive/policy"
)

// chainTable builds the n-mode chain 0↔1↔…↔n-1, contention voting up
// and calm voting down.
func chainTable(n int) *Table {
	up, down := make([]Step, n-1), make([]Step, n-1)
	for i := range up {
		up[i], down[i] = Step{Residual: 150, On: Busy}, Step{Residual: 15, On: Calm}
	}
	return NewTable(up, down)
}

// TestEngineFuzzVoteSequences mirrors internal/core's fuzz tests for the
// native engine: random single-threaded sequences of observations, votes,
// and commit attempts over N-mode chain tables must never produce a
// switch count that disagrees with the commits won, an out-of-range mode,
// or a move of more than one step.
func TestEngineFuzzVoteSequences(t *testing.T) {
	f := func(seed uint64, rawN uint8, rawPolicy uint8, ops []uint16) bool {
		n := int(rawN%5) + 2 // 2..6 modes
		tab := chainTable(n)
		var e Engine
		switch rawPolicy % 4 {
		case 1:
			e.SetPolicy(policy.AlwaysSwitch{})
		case 2:
			e.SetPolicy(policy.NewCompetitive(100))
		case 3:
			e.SetPolicy(policy.NewHysteresis(2, 3))
		}
		commits := uint64(0)
		mode := e.Mode()
		for _, op := range ops {
			// A random step out of the current mode (the only steps a
			// real primitive ever exercises).
			up := op&1 == 0
			from, to := mode, mode
			if up && int(mode) < n-1 {
				to = mode + 1
			} else if !up && mode > 0 {
				to = mode - 1
			} else {
				continue
			}
			switch (op >> 1) % 3 {
			case 0:
				s := Calm
				if up {
					s = Busy
				}
				if next, fire := e.Observe(tab, from, s, [2]int32{2, 2}); fire && e.TryCommit(tab, from, next) {
					commits++
				}
			case 1:
				if e.Vote(tab, from, to, 2) && e.TryCommit(tab, from, to) {
					commits++
				}
			case 2:
				if e.TryCommit(tab, from, to) {
					commits++
				}
			}
			m := e.Mode()
			if e.Switches() != commits {
				t.Errorf("%d commits won but %d switches counted", commits, e.Switches())
				return false
			}
			if int(m) >= n {
				t.Errorf("mode %d out of range for %d modes", m, n)
				return false
			}
			if m != mode && m != mode+1 && m+1 != mode {
				t.Errorf("move %d→%d is not a step of the chain", mode, m)
				return false
			}
			mode = m
		}
		return e.Switches() == commits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineFuzzConcurrentConsensus hammers one engine from many
// goroutines voting and committing random adjacent transitions (under
// the race detector when enabled), then checks the consensus invariants:
// Switches counts exactly the transitions whose TryCommit returned true
// (no commit won twice out of one mode), and every observed mode is in
// range.
func TestEngineFuzzConcurrentConsensus(t *testing.T) {
	f := func(seed uint64, rawN, rawG, rawPolicy uint8) bool {
		n := int(rawN%4) + 2 // 2..5 modes
		tab := chainTable(n)
		var e Engine
		if rawPolicy%2 == 1 {
			e.SetPolicy(policy.NewHysteresis(2, 2))
		}
		goroutines := int(rawG%6) + 2
		const iters = 300
		var committed atomic.Uint64
		var outOfRange atomic.Bool
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := seed ^ (uint64(g)+1)*0x9e3779b97f4a7c15
				for i := 0; i < iters; i++ {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					mode := e.Mode()
					to := mode
					if rng&1 == 0 && int(mode) < n-1 {
						to = mode + 1
					} else if mode > 0 {
						to = mode - 1
					} else {
						continue
					}
					// A vote approving the switch, or an occasional direct
					// commit attempt, races other goroutines' commits out of the same mode.
					if e.Vote(tab, mode, to, 2) || rng&6 == 0 {
						if e.TryCommit(tab, mode, to) {
							committed.Add(1)
						}
					}
					if int(e.Mode()) >= n {
						outOfRange.Store(true)
						return
					}
				}
			}()
		}
		wg.Wait()
		if outOfRange.Load() {
			t.Error("observed an out-of-range mode")
			return false
		}
		if e.Switches() != committed.Load() {
			t.Errorf("%d switches, but %d commits won — consensus violated",
				e.Switches(), committed.Load())
			return false
		}
		return int(e.Mode()) < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
