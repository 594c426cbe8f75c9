package modal

import "fmt"

// Check verifies the engine's quiescent-state invariants against its
// table: the selected mode is one the table knows, and the policy lock is
// free. The second clause holds only at quiescence — a detection event
// holds the lock while it feeds the policy. Call it from tests and
// torture runs after the engine's users have stopped.
func (e *Engine) Check(t *Table) error {
	if m := e.Mode(); int(m) >= t.N() {
		return fmt.Errorf("modal: engine in mode %d, table has %d modes", m, t.N())
	}
	if e.lock.Held() {
		return fmt.Errorf("modal: policy lock held at quiescence")
	}
	return nil
}
