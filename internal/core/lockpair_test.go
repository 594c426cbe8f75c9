package core

import (
	"strings"
	"testing"

	"repro/internal/machine"
)

// TestFinishChangeRejectsStaleFrom calls finishChange on a simulated
// processor with a from that is not the valid protocol. Each case's last
// change is the bad one and must panic; Engine.Run re-raises the panic in
// the test's goroutine.
func TestFinishChangeRejectsStaleFrom(t *testing.T) {
	for _, tc := range []struct {
		name    string
		changes [][2]uint64 // from, to
	}{
		{"queue-to-tts-while-tts-valid", [][2]uint64{{modeQueue, modeTTS}}},
		{"second-tts-to-queue", [][2]uint64{{modeTTS, modeQueue}, {modeTTS, modeQueue}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := machine.New(machine.DefaultConfig(1))
			l := NewReactiveLock(m.Mem, 0)
			done := 0
			m.SpawnCPU(0, 0, "changer", func(c *machine.CPU) {
				for _, ch := range tc.changes {
					l.finishChange(c, ch[0], ch[1])
					done++
				}
			})
			r := func() (r any) {
				defer func() { r = recover() }()
				if err := m.Run(); err != nil {
					t.Errorf("run: %v", err)
				}
				return nil
			}()
			if msg, _ := r.(string); !strings.Contains(msg, "is valid") {
				t.Fatalf("recovered %v, want finishChange's stale-from panic", r)
			}
			if done != len(tc.changes)-1 || l.Changes != uint64(done) {
				t.Fatalf("%d changes done (%d counted), want %d", done, l.Changes, len(tc.changes)-1)
			}
		})
	}
}
