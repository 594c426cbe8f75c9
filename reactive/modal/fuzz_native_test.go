package modal

import "testing"

// FuzzEngineTransitions drives an Engine with an arbitrary stream of
// detection events and commit attempts over a 3-mode chain (Map's shape:
// the middle mode's up step takes contended reads only) and verifies the
// consensus invariants against a model after every step: exactly the
// attempts made in the current mode commit, Switches counts them, an
// observation votes the one step out of its mode whose On accepts it
// and breaks the mode's other streak, and the built-in
// streaks reset on every commit (Vote fires at its limit, immediately
// after a switch it never does).
func FuzzEngineTransitions(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2})  // hammer one commit step
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0})        // vote to the limit
	f.Add([]byte{0, 2, 1, 5, 3, 8, 6, 11, 9, 2, 0, 2}) // walk the chain
	f.Fuzz(func(t *testing.T, ops []byte) {
		tab := NewTable([]Step{{On: Busy}, {On: BusyRead}}, []Step{{On: Calm}, {On: Calm}})
		type move struct{ from, to Mode }
		steps := []move{{0, 1}, {1, 0}, {1, 2}, {2, 1}}
		const limit = 3
		var e Engine

		mode := Mode(0)           // model mode
		var switches uint64       // model switch count
		streak := map[int]int32{} // model per-step sub-optimal streaks

		for _, b := range ops {
			ei := int(b) % len(steps)
			ed := steps[ei]
			switch op := int(b) / len(steps) % 4; op {
			case 0: // Vote
				streak[ei]++
				want := streak[ei] >= limit
				if got := e.Vote(tab, ed.from, ed.to, limit); got != want {
					t.Fatalf("Vote(%d→%d) = %v, model streak %d/%d", ed.from, ed.to, got, streak[ei], limit)
				}
			case 1, 3: // Observe in ed's source mode; the byte's top bits pick the signal
				s := Signal(b >> 6)
				wantTo, wantFire := Mode(0), false
				for k, o := range steps {
					if o.from != ed.from {
						continue
					}
					if tab.Step(o.from, o.to).On.accepts(s) {
						streak[k]++
						wantTo, wantFire = o.to, streak[k] >= limit
					} else {
						streak[k] = 0
					}
				}
				if to, fire := e.Observe(tab, ed.from, s, [2]int32{limit, limit}); to != wantTo || fire != wantFire {
					t.Fatalf("Observe(%d, signal %d) = (%d, %v), model (%d, %v)", ed.from, s, to, fire, wantTo, wantFire)
				}
			case 2: // TryCommit
				want := mode == ed.from
				if got := e.TryCommit(tab, ed.from, ed.to); got != want {
					t.Fatalf("TryCommit(%d→%d) = %v in mode %d", ed.from, ed.to, got, mode)
				}
				if want {
					mode = ed.to
					switches++
					for k := range streak {
						streak[k] = 0
					}
				}
			}

			if got := e.Mode(); got != mode {
				t.Fatalf("Mode = %d, model %d", got, mode)
			}
			if got := e.Switches(); got != switches {
				t.Fatalf("Switches = %d, model %d", got, switches)
			}
			if err := e.Check(tab); err != nil {
				t.Fatal(err)
			}
		}
	})
}
