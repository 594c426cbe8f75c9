package modal

import (
	"strings"
	"testing"
)

func TestEngineCheck(t *testing.T) {
	tab := NewTable([]Step{{}}, []Step{{}})
	var e Engine
	if err := e.Check(tab); err != nil {
		t.Fatalf("fresh engine: %v", err)
	}
	if !e.TryCommit(tab, 0, 1) {
		t.Fatal("TryCommit failed on a fresh engine")
	}
	if err := e.Check(tab); err != nil {
		t.Fatalf("after one commit: %v", err)
	}

	// A mode the table does not know means a commit bypassed the table.
	e.word.Store(2)
	if err := e.Check(tab); err == nil || !strings.Contains(err.Error(), "mode 2") {
		t.Fatalf("out-of-range mode not caught: %v", err)
	}
	e.word.Store(1) // undo

	// A held policy lock at quiescence means a detection event leaked it.
	e.lock.TryLock()
	if err := e.Check(tab); err == nil || !strings.Contains(err.Error(), "policy lock") {
		t.Fatalf("held policy lock not caught: %v", err)
	}
	e.lock.Unlock()
	if err := e.Check(tab); err != nil {
		t.Fatalf("restored engine: %v", err)
	}
}
