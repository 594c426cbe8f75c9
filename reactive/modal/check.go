package modal

import "fmt"

// Check verifies the engine's quiescent-state invariants against its
// table: the selected mode is one the table knows, and the epoch in the
// packed word agrees with the switch counter. The second clause holds
// only at quiescence — TryCommit advances the epoch with its CAS and
// bumps the counter just after, so a checker racing a commit can
// observe the counter one behind. Call it from tests and torture runs
// after the engine's users have stopped, never concurrently with
// transitions.
func (e *Engine) Check(t *Table) error {
	epoch, m := Unpack(e.word.Load())
	if int(m) >= t.N() {
		return fmt.Errorf("modal: engine in mode %d, table has %d modes", m, t.N())
	}
	// The epoch is the switch counter truncated to 32 bits (both only
	// ever advance together, by one), so compare modulo 2^32.
	if s := e.switches.Load(); uint32(s) != epoch {
		return fmt.Errorf("modal: epoch %d but %d committed switches (checker raced a commit, or a commit skipped its bookkeeping)", epoch, s)
	}
	if e.lock.Load() != 0 {
		return fmt.Errorf("modal: policy lock held at quiescence")
	}
	return nil
}
