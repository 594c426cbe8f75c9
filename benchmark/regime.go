package main

// A regime is one contention level — the paper's x-axis, and therefore the
// workload axis. The same layers are exercised at every level; what does
// the work changes: fast paths when nothing contends, protocol selection
// and cache-line behaviour when reads contend, waiting and reconciliation
// when more writers than threads pile up.
type regime struct {
	name string
	why  string

	// goroutines in every closed loop, as a function of GOMAXPROCS.
	goroutines func(procs int) int

	mutexCS int // critical-section length, dependent xorshift steps
	rw      mix // opWrite = Lock, rest RLock
	counter mix // opAux = Load, rest Add
	fetchop mix // opAux = Value, rest Apply
	kv      mix // opWrite = Put, opAux = Delete, rest Get

	svc svcMix

	// The simulator runs the same figures at the regime's own processor
	// counts; iters is sized so one pass over the spec list costs one to
	// two host seconds on the reference host.
	simProcs []int
	simIters int
}

// svcMix is the service phase's request mix; what is neither a Put nor a
// Rebuild is a Get.
type svcMix struct {
	putPerMille       int
	rebuildPer10k     int // 0.2 % is 20 in ten thousand
	deadlinePerMille  int // of Gets: run under a 200 µs deadline
	cancelledPerMille int // of all requests: context already cancelled
}

var regimes = []regime{
	{
		name:       "uncontended",
		why:        "1 goroutine: mode-word load, affinity pin and notify elision do all the work and waiting none; simulator at 1-2 processors",
		goroutines: func(int) int { return 1 },
		rw:         mix{writePerMille: 16},
		kv:         mix{writePerMille: 50},
		svc:        svcMix{putPerMille: 50},
		simProcs:   []int{1, 2},
		simIters:   4000,
	},
	{
		name:       "contended-reads",
		why:        "GOMAXPROCS goroutines, read-mostly mixes: protocol selection and cache-line traffic do the work, parking little; simulator at 4-8 processors",
		goroutines: func(p int) int { return p },
		rw:         mix{writePerMille: 16},
		kv:         mix{writePerMille: 50},
		svc:        svcMix{putPerMille: 50},
		simProcs:   []int{4, 8},
		simIters:   100,
	},
	{
		name:       "oversubscribed-writes",
		why:        "4xGOMAXPROCS goroutines, write-heavy: park/handoff/abandon, grace periods and reconciling sweeps, so a read-side gain that taxes writers shows; simulator at 12-24 processors",
		goroutines: func(p int) int { return 4 * p },
		mutexCS:    100,
		rw:         mix{writePerMille: 500},
		counter:    mix{auxPerMille: 16},
		fetchop:    mix{auxPerMille: 16},
		kv:         mix{writePerMille: 495, auxPerMille: 10},
		svc:        svcMix{putPerMille: 500, rebuildPer10k: 20, deadlinePerMille: 100, cancelledPerMille: 30},
		simProcs:   []int{12, 16, 24},
		simIters:   5,
	},
}
