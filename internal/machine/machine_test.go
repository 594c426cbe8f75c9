package machine

import (
	"testing"
)

func TestCPUMemoryOps(t *testing.T) {
	m := New(DefaultConfig(4))
	a := m.Mem.Alloc(0, 1)
	var got uint64
	m.SpawnCPU(1, 0, "w", func(c *CPU) {
		c.Write(a, 5)
		if old := c.FetchAndAdd(a, 3); old != 5 {
			t.Errorf("FetchAndAdd old = %d", old)
		}
		if old := c.FetchAndStore(a, 100); old != 8 {
			t.Errorf("FetchAndStore old = %d", old)
		}
		if !c.CompareAndSwap(a, 100, 1) {
			t.Error("CAS should succeed")
		}
		if c.CompareAndSwap(a, 100, 2) {
			t.Error("CAS should fail")
		}
		got = c.Read(a)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("final value %d", got)
	}
}

func TestTestAndSetMutualExclusion(t *testing.T) {
	m := New(DefaultConfig(8))
	lock := m.Mem.Alloc(0, 1)
	counter := 0
	inCS := false
	for p := 0; p < 8; p++ {
		m.SpawnCPU(p, 0, "worker", func(c *CPU) {
			for i := 0; i < 20; i++ {
				for c.TestAndSet(lock) != 0 {
					c.Advance(10)
				}
				if inCS {
					t.Error("mutual exclusion violated")
				}
				inCS = true
				c.Advance(30)
				inCS = false
				c.Write(lock, 0)
				c.Advance(Time(c.Rand().Intn(50)))
			}
			counter += 20
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if counter != 160 {
		t.Fatalf("counter = %d", counter)
	}
}

func TestMessageDeliveryAndReply(t *testing.T) {
	m := New(DefaultConfig(4))
	serverVal := uint64(0) // node-1-private state, touched only by handlers
	var replyAt Time
	m.SpawnCPU(0, 0, "client", func(c *CPU) {
		done := false
		me := c.Actor()
		c.Send(1, func(h *Handler) {
			serverVal += 7
			h.Send(0, func(h2 *Handler) {
				done = true
				h2.Wake(me, 1)
			})
		})
		if !done {
			me.Park()
		}
		replyAt = c.Now()
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if serverVal != 7 {
		t.Fatalf("handler did not run: %d", serverVal)
	}
	cfg := m.Config()
	min := cfg.MsgSend + 2*cfg.MsgNetwork + 2*cfg.MsgHandler
	if replyAt < min {
		t.Fatalf("round trip %d < theoretical min %d", replyAt, min)
	}
}

func TestHandlersSerializePerNode(t *testing.T) {
	m := New(DefaultConfig(4))
	var times []Time
	for p := 1; p < 4; p++ {
		m.SpawnCPU(p, 0, "sender", func(c *CPU) {
			c.Send(0, func(h *Handler) {
				times = append(times, h.Now())
			})
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 3 {
		t.Fatalf("%d handlers ran", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i]-times[i-1] < m.Config().MsgHandler {
			t.Fatalf("handlers overlapped: %v", times)
		}
	}
}

func TestHandlerOnSameNodeAsCPU(t *testing.T) {
	// A CPU can message its own node; the handler still runs atomically.
	m := New(DefaultConfig(2))
	hit := false
	m.SpawnCPU(0, 0, "self", func(c *CPU) {
		c.Send(0, func(h *Handler) { hit = true })
		c.Advance(1000)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("self-message handler did not run")
	}
}

func TestContentionSlowsRMW(t *testing.T) {
	// Hot-spot polling: per-op completion time under 16 pollers should be
	// much higher than under 1 due to module occupancy and invalidations.
	perOp := func(procs int) Time {
		m := New(DefaultConfig(16))
		hot := m.Mem.Alloc(0, 1)
		var total Time
		for p := 0; p < procs; p++ {
			m.SpawnCPU(p, 0, "poller", func(c *CPU) {
				for i := 0; i < 50; i++ {
					c.TestAndSet(hot)
				}
				if c.Now() > total {
					total = c.Now()
				}
			})
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return total / Time(50)
	}
	if perOp(16) < 2*perOp(1) {
		t.Fatal("contention did not slow down hot-spot RMWs")
	}
}

// TestHandlerAfterAndZeroOccupancy: a handler's software timer fires as
// another handler d cycles later, occupancy included; with MsgHandler 0 a
// handler completes at its arrival instant.
func TestHandlerAfterAndZeroOccupancy(t *testing.T) {
	for _, occupancy := range []Time{34, 0} {
		cfg := DefaultConfig(2)
		cfg.MsgHandler = occupancy
		m := New(cfg)
		var first, timer Time
		m.SpawnCPU(0, 0, "client", func(c *CPU) {
			c.Send(1, func(h *Handler) {
				first = h.Now()
				h.After(100, 0, func(h2 *Handler) { timer = h2.Now() })
			})
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if want := cfg.MsgSend + cfg.MsgNetwork + occupancy; first != want {
			t.Errorf("occupancy %d: handler ran at %d, want %d", occupancy, first, want)
		}
		if want := first + 100 + occupancy; timer != want {
			t.Errorf("occupancy %d: timer handler ran at %d, want %d", occupancy, timer, want)
		}
	}
}

// BenchmarkDeliver is the host cost of one message: a chain of handlers
// each relaying to the next node, two inline events apiece (arrival,
// completion) and no actor anywhere.
func BenchmarkDeliver(b *testing.B) {
	const nodes = 4
	m := New(DefaultConfig(nodes))
	left := b.N
	var relay HandlerFunc
	relay = func(h *Handler) {
		if left--; left > 0 {
			h.Send((h.ProcID()+1)%nodes, relay)
		}
	}
	m.deliver(0, 0, relay)
	b.ReportAllocs()
	b.ResetTimer()
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
}
