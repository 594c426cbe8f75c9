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

	// Epoch/switch-counter skew is the torn-commit signature.
	e.switches.Add(1)
	if err := e.Check(tab); err == nil || !strings.Contains(err.Error(), "switches") {
		t.Fatalf("skewed switch counter not caught: %v", err)
	}
	e.switches.Add(^uint64(0)) // undo

	// A held policy lock at quiescence means a detection event leaked it.
	e.lock.Store(1)
	if err := e.Check(tab); err == nil || !strings.Contains(err.Error(), "policy lock") {
		t.Fatalf("held policy lock not caught: %v", err)
	}
	e.lock.Store(0)
	if err := e.Check(tab); err != nil {
		t.Fatalf("restored engine: %v", err)
	}
}
