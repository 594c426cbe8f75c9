package constructs

import (
	"repro/internal/memsys"
	"repro/internal/threads"
	"repro/internal/waiting"
)

// CountingNetwork is a bitonic counting network (Aspnes, Herlihy, Shavit)
// of width w: tokens traverse stages of two-input balancers and finish by
// fetch&adding a per-wire counter, together yielding the values
// 0, 1, 2, ... with low contention per balancer. Each balancer's toggle bit
// is protected by a Mutex, making this the “CountNet” mutex benchmark of
// Section 4.6.2: many small, frequently-acquired critical sections.
type CountingNetwork struct {
	width  int
	stages [][]balancer
	wires  []memsys.Addr // per-output-wire counters

	// Balancers counts traversal steps (stats).
	Balancers uint64
}

type balancer struct {
	lo, hi int // input/output wire indices (lo < hi)
	top    int // output wire that receives the first token (direction)
	mu     *Mutex
	toggle memsys.Addr
}

// NewCountingNetwork builds a bitonic network of the given width (a power
// of two). Balancer state is striped across the machine's nodes.
func NewCountingNetwork(mem *memsys.System, width int) *CountingNetwork {
	if width <= 0 || width&(width-1) != 0 {
		panic("constructs: counting network width must be a power of two")
	}
	n := &CountingNetwork{width: width}
	procs := mem.Config().NumNodes
	home := 0
	// Batcher's bitonic construction: stage loop over (k, j); a comparator
	// (i, i^j) with i < i^j becomes a balancer.
	for k := 2; k <= width; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			var stage []balancer
			for i := 0; i < width; i++ {
				l := i ^ j
				if l <= i {
					continue
				}
				b := balancer{
					lo:     i,
					hi:     l,
					top:    i,
					mu:     NewMutex(mem, home%procs),
					toggle: mem.Alloc(home%procs, 1),
				}
				if i&k != 0 {
					// Descending comparator block: the balancer's "top"
					// output (first-token target) is the high wire.
					b.top = l
				}
				home++
				stage = append(stage, b)
			}
			n.stages = append(n.stages, stage)
		}
	}
	n.wires = mem.AllocStriped(width)
	return n
}

// Width returns the network width.
func (n *CountingNetwork) Width() int { return n.width }

// Depth returns the number of balancer stages.
func (n *CountingNetwork) Depth() int { return len(n.stages) }

// Next issues the next counter value to the calling thread: traverse the
// network from input wire (threadID mod width), then fetch&add the output
// wire's counter. The returned values across all concurrent callers are a
// permutation of 0..N-1 (the counting property).
func (n *CountingNetwork) Next(t *threads.Thread, alg *waiting.Algorithm) uint64 {
	wire := t.ProcID() % n.width
	for _, stage := range n.stages {
		for _, b := range stage {
			if b.lo != wire && b.hi != wire {
				continue
			}
			b.mu.Lock(t, alg)
			n.Balancers++
			tog := t.Read(b.toggle)
			t.Write(b.toggle, 1-tog)
			b.mu.Unlock(t)
			other := b.lo + b.hi - b.top
			if tog == 0 {
				wire = b.top
			} else {
				wire = other
			}
			break
		}
	}
	v := t.FetchAndAdd(n.wires[wire], 1)
	return v*uint64(n.width) + uint64(wire)
}
