package reactive

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/reactive/modal"
	"repro/reactive/policy"
)

func TestNewFetchOpRequiresOp(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFetchOp(nil, ...) must panic")
		}
	}()
	NewFetchOp(nil, 0)
}

func TestFetchOpStartsInCAS(t *testing.T) {
	f := NewFetchOp(func(a, b int64) int64 { return a + b }, 0)
	f.Apply(5)
	f.Apply(-2)
	if got := f.Value(); got != 3 {
		t.Fatalf("Value = %d, want 3", got)
	}
	if st := f.Stats(); st.Mode != ModeCAS || st.Switches != 0 {
		t.Fatalf("Stats = %+v, want cas mode, 0 switches", st)
	}
}

// TestFetchOpMaxAcrossModes drives a non-additive operation (running
// max, identity MinInt64) through all three protocols and checks the
// fold is exact in each — including negative operands, which only fold
// correctly if the base starts at the identity element rather than 0.
func TestFetchOpMaxAcrossModes(t *testing.T) {
	max := func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	}
	f := NewFetchOp(max, math.MinInt64)
	if got := f.Value(); got != math.MinInt64 {
		t.Fatalf("fresh Value = %d, want the identity %d", got, int64(math.MinInt64))
	}
	f.Apply(-5)
	if got := f.Value(); got != -5 {
		t.Fatalf("cas-mode max of {-5} = %d, want -5", got)
	}
	f.Apply(7)
	if got := f.Value(); got != 7 {
		t.Fatalf("cas-mode max = %d, want 7", got)
	}
	f.forceMode(t, fSharded)
	f.Apply(3)
	f.Apply(42)
	if got := f.Value(); got != 42 {
		t.Fatalf("sharded-mode max = %d, want 42", got)
	}
	f.forceMode(t, fCombining)
	for i := int64(0); i < 500; i++ {
		f.Apply(i - 250)
	}
	if got := f.Value(); got != 249 {
		t.Fatalf("combining-mode max = %d, want 249", got)
	}
}

// forceMode walks the accumulator to the target mode along the chain,
// one step at a time.
func (f *FetchOp) forceMode(t *testing.T, want modal.Mode) {
	t.Helper()
	for i := 0; f.eng.Mode() != want; i++ {
		cur := f.eng.Mode()
		next := cur + 1
		if cur > want {
			next = cur - 1
		}
		f.switchFop(cur, next)
		if i > 8 {
			t.Fatalf("could not force mode %d", want)
		}
	}
}

// TestFetchOpDetectionChain pins the chain detection walks: contended
// Applies promote CAS→sharded, single-writer reconciling Values demote
// sharded→CAS, and a combining instance (only ever constructed, never
// detected into) demotes itself to sharded on idle sweeps. Wide-fan-in
// sweeps — every cell active on every Value, the signal that used to
// promote sharded→combining — keep the accumulator sharded, at these
// limits and at the defaults.
func TestFetchOpDetectionChain(t *testing.T) {
	add := func(a, b int64) int64 { return a + b }
	wideFanIn := func(f *FetchOp, rounds int) (applied int64) {
		cells := f.cells.Build(f.id)
		for round := 0; round < rounds; round++ {
			for i := range cells {
				cells[i].N.Add(1)
			}
			f.Value()
			applied += int64(len(cells))
		}
		return applied
	}

	f := NewFetchOp(add, 0, WithSpinFailLimit(2), WithEmptyLimit(2))
	// Up: contended CAS applies.
	for i := 0; i < 2; i++ {
		f.observe(fCAS, modal.Busy)
	}
	if f.Stats().Mode != ModeSharded {
		t.Fatalf("mode = %v after contended streak, want sharded", f.Stats().Mode)
	}
	// No further up: wide-fan-in sweeps, many times the limit.
	want := wideFanIn(f, 16)
	if st := f.Stats(); st.Mode != ModeSharded || st.Switches != 1 {
		t.Fatalf("Stats = %+v after wide-fan-in Values, want sharded and 1 switch", st)
	}
	// Down: single-writer Values.
	for i := 0; i < 2; i++ {
		f.Apply(1)
		f.Value()
	}
	if f.Stats().Mode != ModeCAS {
		t.Fatalf("mode = %v after single-writer Values, want cas", f.Stats().Mode)
	}
	if got := f.Value(); got != want+2 {
		t.Fatalf("Value = %d after the walk, want %d", got, want+2)
	}

	// A forced-combining instance retires itself on sweeps that find ≤1
	// pending deposit, and detection never brings it back.
	fc := NewFetchOp(add, 0, WithInitialMode(ModeCombining), WithEmptyLimit(2))
	for i := 0; i < 2; i++ {
		fc.Apply(1)
		fc.Value()
	}
	if fc.Stats().Mode != ModeSharded {
		t.Fatalf("mode = %v after idle combining sweeps, want sharded", fc.Stats().Mode)
	}
	wideFanIn(fc, 16)
	if st := fc.Stats(); st.Mode != ModeSharded || st.Switches != 3 {
		t.Fatalf("Stats = %+v after wide-fan-in Values, want sharded and 3 switches", st)
	}

	// Default limits: four times the scale-up streak of wide-fan-in
	// sweeps leaves a sharded accumulator sharded.
	fd := NewFetchOp(add, 0, WithInitialMode(ModeSharded))
	wideFanIn(fd, 4*DefaultSpinFailLimit)
	if st := fd.Stats(); st.Mode != ModeSharded || st.Switches != 1 {
		t.Fatalf("Stats = %+v under default limits, want sharded and 1 switch", st)
	}
}

// TestFetchOpInjectedPolicy: an always-switch policy rides each
// detection event through a transition immediately, in both directions.
func TestFetchOpInjectedPolicy(t *testing.T) {
	f := NewFetchOp(func(a, b int64) int64 { return a + b }, 0,
		WithPolicy(policy.AlwaysSwitch{}))
	f.observe(fCAS, modal.Busy)
	if f.Stats().Mode != ModeSharded {
		t.Fatal("always-switch did not promote on first contended Apply")
	}
	f.Apply(1)
	f.Value() // single writer: demote
	if f.Stats().Mode != ModeCAS {
		t.Fatal("always-switch did not demote on single-writer Value")
	}
}

// TestFetchOpCombiningFoldsEagerly: in combining mode, updaters fold the
// cells into the shared word on their own once a batch accumulates — the
// base must advance without any Value call.
func TestFetchOpCombiningFoldsEagerly(t *testing.T) {
	f := NewFetchOp(func(a, b int64) int64 { return a + b }, 0)
	f.forceMode(t, fCombining)
	batch := f.combineBatch()
	for i := int64(0); i < 4*batch; i++ {
		f.Apply(1)
	}
	if got := f.base.Load(); got == 0 {
		t.Fatal("combining mode never folded cells into the base without a Value call")
	}
	if got := f.Value(); got != 4*batch {
		t.Fatalf("Value = %d, want %d", got, 4*batch)
	}
}

// TestFetchOpAbsorbedOperands covers test-before-write in every protocol
// of the chain: an Apply whose operand the accumulated value already
// absorbs returns after a load, in the CAS fast path, in a per-P cell
// and in the sweep's fold into the shared word. Concurrent appliers mix
// absorbed and fresh operands while reconciling; no Value may miss an
// operand its caller already applied, and the result is exact at
// quiescence. The limits hold each instance in its forced protocol. Run
// with -race.
func TestFetchOpAbsorbedOperands(t *testing.T) {
	idempotent := func(op func(a, b int64) int64) func(v, acc int64) bool {
		return func(v, acc int64) bool { return op(v, acc) == v }
	}
	max := func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	}
	min := func(a, b int64) int64 { return -max(-a, -b) }
	or := func(a, b int64) int64 { return a | b }
	and := func(a, b int64) int64 { return a & b }
	add := func(a, b int64) int64 { return a + b }
	sparse := func(r uint64, _ int) int64 { // mostly the identity of +
		if r&7 != 0 {
			return 0
		}
		return int64(r>>3)%5 + 1
	}
	ops := []struct {
		name    string
		op      func(a, b int64) int64 // nil: Counter's addition
		id      int64
		operand func(r uint64, i int) int64
		covers  func(v, acc int64) bool // v accounts for everything folded into acc
	}{
		{"max", max, math.MinInt64, func(r uint64, i int) int64 { return int64(r % uint64(i+2)) }, idempotent(max)},
		{"min", min, math.MaxInt64, func(r uint64, i int) int64 { return -int64(r % uint64(i+2)) }, idempotent(min)},
		{"or", or, 0, func(r uint64, _ int) int64 { return 1 << (r % 48) }, idempotent(or)},
		{"and", and, -1, func(r uint64, _ int) int64 { return ^(1 << (r % 48)) }, idempotent(and)},
		{"add-with-zeros", add, 0, sparse, func(v, acc int64) bool { return v >= acc }},
		{"counter-with-zeros", nil, 0, sparse, func(v, acc int64) bool { return v >= acc }},
	}
	const goroutines = 8
	iters := 4000
	if testing.Short() {
		iters = 1000
	}
	for _, mode := range []Mode{ModeCAS, ModeSharded, ModeCombining} {
		for _, tc := range ops {
			t.Run(mode.String()+"/"+tc.name, func(t *testing.T) {
				opts := []Option{WithInitialMode(mode), WithSpinFailLimit(1 << 30), WithEmptyLimit(1 << 30)}
				f, comb := &NewCounter(opts...).f, add
				if tc.op != nil {
					f, comb = NewFetchOp(tc.op, tc.id, opts...), tc.op
				}
				accs := make([]int64, goroutines)
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						acc, r := tc.id, uint64(g+1)
						for i := 0; i < iters; i++ {
							r = r*6364136223846793005 + 1442695040888963407
							x := tc.operand(r>>33, i)
							f.Apply(x)
							acc = comb(acc, x)
							if i%32 == g%32 {
								if v := f.Value(); !tc.covers(v, acc) {
									t.Errorf("goroutine %d op %d: Value = %d misses own applied operands (fold %d)", g, i, v, acc)
									return
								}
							}
						}
						accs[g] = acc
					}(g)
				}
				wg.Wait()
				want := tc.id
				for _, acc := range accs {
					want = comb(want, acc)
				}
				if got := f.Value(); got != want {
					t.Fatalf("Value = %d at quiescence, want %d", got, want)
				}
				if err := f.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if got := f.Stats().Mode; got != mode {
					t.Fatalf("mode = %v at the end, want the forced %v", got, mode)
				}
			})
		}
	}
}

// TestFetchOpStressForcedModeSwitches is the acceptance stress test for
// the N=3 modal object: hammer Apply and Value from many goroutines
// while a forcer walks the mode chain in both directions as fast as it
// can, under the race detector when enabled. The timeout guard asserts
// no updater is stranded across any transition, and the final Value must
// account for every operation regardless of which protocol each landed
// in.
func TestFetchOpStressForcedModeSwitches(t *testing.T) {
	f := NewFetchOp(func(a, b int64) int64 { return a + b }, 0)
	const goroutines = 24
	iters := 3000
	if testing.Short() {
		iters = 800
	}
	stop := make(chan struct{})
	var fwg sync.WaitGroup
	fwg.Add(1)
	go func() { // forcer: walk the chain up and down through every edge
		defer fwg.Done()
		edges := []struct{ from, to modal.Mode }{
			{fCAS, fSharded}, {fSharded, fCombining}, {fCombining, fSharded}, {fSharded, fCAS},
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e := edges[i%len(edges)]
			f.switchFop(e.from, e.to)
			time.Sleep(50 * time.Microsecond)
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				f.Apply(1)
				if g == 0 && i%64 == 0 {
					f.Value() // reconciling reader in the mix
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		close(stop)
		t.Fatal("stranded updater: Apply calls did not complete across forced mode switches")
	}
	close(stop)
	fwg.Wait()
	if got := f.Value(); got != goroutines*int64(iters) {
		t.Fatalf("Value = %d, want %d", got, goroutines*int64(iters))
	}
	// A second Value must not double-count reconciled cells.
	if got := f.Value(); got != goroutines*int64(iters) {
		t.Fatalf("second Value = %d, want %d", got, goroutines*int64(iters))
	}
}
