// Package machine assembles the simulated multiprocessor: an event engine,
// a cache-coherent memory system, per-node processors, and an Alewife-style
// atomic message interface. Synchronization protocols are written against
// the Context interface, which is implemented both by bare processors
// (package machine, one hardware context spinning) and by scheduled threads
// (package threads, which adds blocking and multithreaded waiting
// mechanisms).
package machine

import (
	"fmt"

	"repro/internal/memsys"
	"repro/internal/sim"
)

// Time is simulated cycles.
type Time = sim.Time

// Addr is a simulated memory address.
type Addr = memsys.Addr

// Config parameterizes the machine.
type Config struct {
	NumProcs int
	Seed     uint64
	Mem      memsys.Config

	// Message-passing interface costs (Alewife CMMU-style).
	MsgSend    Time // processor overhead to launch a message
	MsgNetwork Time // network transit latency
	MsgHandler Time // dispatch + execution occupancy of an atomic handler
}

// DefaultConfig returns the standard machine used throughout the
// experiments: Alewife-like latencies, LimitLESS directory with 5 pointers.
func DefaultConfig(numProcs int) Config {
	return Config{
		NumProcs:   numProcs,
		Seed:       0x5eed,
		Mem:        memsys.DefaultConfig(numProcs),
		MsgSend:    16,
		MsgNetwork: 22,
		MsgHandler: 34,
	}
}

// Machine is a simulated multiprocessor.
type Machine struct {
	Eng   *sim.Engine
	Mem   *memsys.System
	cfg   Config
	procs []*Proc
}

// New builds a machine from cfg.
func New(cfg Config) *Machine {
	if cfg.NumProcs <= 0 {
		panic("machine: NumProcs must be positive")
	}
	if cfg.Mem.NumNodes != cfg.NumProcs {
		cfg.Mem.NumNodes = cfg.NumProcs
	}
	m := &Machine{
		Eng: sim.New(cfg.Seed),
		Mem: memsys.New(cfg.Mem),
		cfg: cfg,
	}
	for i := 0; i < cfg.NumProcs; i++ {
		m.procs = append(m.procs, &Proc{m: m, id: i})
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// NumProcs returns the processor count.
func (m *Machine) NumProcs() int { return m.cfg.NumProcs }

// Proc returns processor i.
func (m *Machine) Proc(i int) *Proc { return m.procs[i] }

// Run executes the simulation to completion.
func (m *Machine) Run() error { return m.Eng.Run() }

// Proc is one processing node.
type Proc struct {
	m           *Machine
	id          int
	handlerFree Time // next time the node's handler interface is free
}

// ID returns the processor number.
func (p *Proc) ID() int { return p.id }

// Context is the execution-context API that synchronization protocols are
// written against: simulated instruction timing, coherent shared memory,
// atomic read-modify-write primitives, and the message interface.
//
// Implementations: *machine.CPU (a bare hardware context that can only
// spin) and *threads.Thread (a scheduled thread that can also block).
type Context interface {
	// ProcID returns the processor this context currently runs on.
	ProcID() int
	// Now returns the current cycle.
	Now() Time
	// Advance consumes d cycles of local computation.
	Advance(d Time)
	// Rand is the context's deterministic random source.
	Rand() *sim.Rand

	// Read performs a shared-memory load.
	Read(a Addr) uint64
	// Write performs a shared-memory store.
	Write(a Addr, v uint64)
	// TestAndSet atomically sets the word to 1, returning the old value.
	TestAndSet(a Addr) uint64
	// FetchAndStore atomically swaps in v, returning the old value.
	FetchAndStore(a Addr, v uint64) uint64
	// CompareAndSwap stores nv if the word equals old; reports success.
	CompareAndSwap(a Addr, old, nv uint64) bool
	// FetchAndAdd atomically adds d, returning the old value.
	FetchAndAdd(a Addr, d uint64) uint64
	// ReadFE reads a word and its full/empty bit.
	ReadFE(a Addr) (uint64, bool)
	// WriteFull stores v and sets the full bit.
	WriteFull(a Addr, v uint64)
	// Send launches a message to processor dst; f runs there atomically.
	Send(dst int, f HandlerFunc)
}

// CPU is a bare hardware context executing on a processor. It implements
// Context. For Chapter 3 experiments each processor runs exactly one CPU.
type CPU struct {
	m *Machine
	p *Proc
	a *sim.Actor
}

// SpawnCPU starts f on processor proc at time start.
func (m *Machine) SpawnCPU(proc int, start Time, name string, f func(*CPU)) {
	p := m.procs[proc]
	m.Eng.Spawn(fmt.Sprintf("cpu%d:%s", proc, name), start, func(a *sim.Actor) {
		f(&CPU{m: m, p: p, a: a})
	})
}

// Actor exposes the underlying sim actor (used by the threads package).
func (c *CPU) Actor() *sim.Actor { return c.a }

// Machine returns the owning machine.
func (c *CPU) Machine() *Machine { return c.m }

// ProcID implements Context.
func (c *CPU) ProcID() int { return c.p.id }

// Now implements Context.
func (c *CPU) Now() Time { return c.a.Now() }

// Advance implements Context.
func (c *CPU) Advance(d Time) { c.a.Advance(d) }

// Rand implements Context.
func (c *CPU) Rand() *sim.Rand { return c.a.Rand() }

// Read implements Context.
func (c *CPU) Read(a Addr) uint64 {
	v, done := c.m.Mem.Read(c.p.id, a, c.a.Now())
	c.a.AdvanceTo(done)
	return v
}

// Write implements Context.
func (c *CPU) Write(a Addr, v uint64) {
	done := c.m.Mem.Write(c.p.id, a, v, c.a.Now())
	c.a.AdvanceTo(done)
}

// TestAndSet implements Context.
func (c *CPU) TestAndSet(a Addr) uint64 {
	old, _, done := c.m.Mem.RMW(c.p.id, a, c.a.Now(), func(o uint64) (uint64, bool) {
		return 1, true
	})
	c.a.AdvanceTo(done)
	return old
}

// FetchAndStore implements Context.
func (c *CPU) FetchAndStore(a Addr, v uint64) uint64 {
	old, _, done := c.m.Mem.RMW(c.p.id, a, c.a.Now(), func(o uint64) (uint64, bool) {
		return v, true
	})
	c.a.AdvanceTo(done)
	return old
}

// CompareAndSwap implements Context.
func (c *CPU) CompareAndSwap(a Addr, old, nv uint64) bool {
	_, stored, done := c.m.Mem.RMW(c.p.id, a, c.a.Now(), func(o uint64) (uint64, bool) {
		if o == old {
			return nv, true
		}
		return 0, false
	})
	c.a.AdvanceTo(done)
	return stored
}

// FetchAndAdd implements Context.
func (c *CPU) FetchAndAdd(a Addr, d uint64) uint64 {
	old, _, done := c.m.Mem.RMW(c.p.id, a, c.a.Now(), func(o uint64) (uint64, bool) {
		return o + d, true
	})
	c.a.AdvanceTo(done)
	return old
}

// ReadFE implements Context.
func (c *CPU) ReadFE(a Addr) (uint64, bool) {
	v, full, done := c.m.Mem.ReadFE(c.p.id, a, c.a.Now())
	c.a.AdvanceTo(done)
	return v, full
}

// WriteFull implements Context.
func (c *CPU) WriteFull(a Addr, v uint64) {
	done := c.m.Mem.WriteFull(c.p.id, a, v, c.a.Now())
	c.a.AdvanceTo(done)
}

// Send implements Context: the sender pays MsgSend cycles; the handler runs
// atomically on dst after MsgNetwork transit.
func (c *CPU) Send(dst int, f HandlerFunc) {
	c.a.Advance(c.m.cfg.MsgSend)
	c.m.deliver(dst, c.a.Now()+c.m.cfg.MsgNetwork, f)
}

// HandlerFunc is the body of an atomic message handler. It executes
// atomically with respect to all other handlers on the same node (and, in
// this model, atomically with respect to everything: it runs to completion
// at a single instant after its occupancy has been charged).
type HandlerFunc func(h *Handler)

// Handler gives a message handler its limited execution environment:
// it can read the clock, mutate node-private protocol state (ordinary Go
// data captured by the closure), send further messages, and wake waiters.
// Handlers must not block: they run as inline engine events, on the stack
// of whichever actor (or Run itself) holds control when they come up.
type Handler struct {
	m    *Machine
	proc *Proc
}

// ProcID returns the node the handler runs on.
func (h *Handler) ProcID() int { return h.proc.id }

// Now returns the handler's completion instant.
func (h *Handler) Now() Time { return h.m.Eng.Now() }

// Send relays a message from within a handler (no extra sender overhead:
// launch cost is part of the handler occupancy already charged).
func (h *Handler) Send(dst int, f HandlerFunc) {
	h.m.deliver(dst, h.Now()+h.m.cfg.MsgNetwork, f)
}

// Wake schedules a parked actor to resume d cycles from now. The threads
// and spin-wait layers use this to deliver reply notifications.
func (h *Handler) Wake(a *sim.Actor, d Time) {
	h.m.Eng.WakeAt(a, h.Now()+d)
}

// After schedules f to execute as an atomic handler on node dst, d cycles
// from now (a software timer; used e.g. for message-combining windows).
func (h *Handler) After(d Time, dst int, f HandlerFunc) {
	h.m.deliver(dst, h.Now()+d, f)
}

// deliver schedules an atomic handler execution on node dst at time at.
// Handlers on one node serialize: on arrival each reserves the node's
// handler interface for MsgHandler cycles and runs when that occupancy
// ends, so two handlers can never observe each other mid-flight.
//
// A delivery is two inline engine events, arrival and completion, and no
// actor. It takes an actor id all the same, and one queue sequence number
// per event: exactly what an actor spawned at the arrival and advanced to
// the completion takes. The committed table digests were cut with
// deliveries in that form, and actor RNG streams derive from ids.
func (m *Machine) deliver(dst int, at Time, f HandlerFunc) {
	h := &Handler{m: m, proc: m.procs[dst]}
	m.Eng.NewActorID()
	m.Eng.At(at, func() {
		done := max(m.Eng.Now(), h.proc.handlerFree) + m.cfg.MsgHandler
		h.proc.handlerFree = done
		if done > m.Eng.Now() {
			m.Eng.At(done, func() { f(h) })
		} else {
			f(h)
		}
	})
}
