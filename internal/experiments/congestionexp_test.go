package experiments

import (
	"math/rand"
	"testing"

	"repro/reactive"
	"repro/reactive/modal"
	"repro/reactive/policy"
)

// TestCongestionInstanceDrivesSimAndNative proves the tentpole property:
// one policy.Congestion instance, unchanged, drives both halves of the
// repository through the same serialized Policy interface — first the
// simulator-style modal-engine trace (the registry experiment's drive),
// then, sequentially reinstalled, a native primitive's protocol
// selection. (Sequential reuse is the legal form of "the same instance";
// concurrent sharing between primitives is excluded by the Policy
// contract.)
func TestCongestionInstanceDrivesSimAndNative(t *testing.T) {
	pol := policy.NewCongestion()

	// Half 1: the simulator-style drive of the registry experiment.
	var e modal.Engine
	e.SetPolicy(pol)
	sz := Tiny()
	rng := rand.New(rand.NewSource(int64(sz.Seed)))
	for _, ph := range modalPhases(sz) {
		for i := 0; i < ph.steps; i++ {
			fopChain.step(&e, rng, ph.p)
		}
	}
	if e.Switches() == 0 {
		t.Fatal("the contention trace must drive protocol changes through the congestion policy")
	}
	simSwitches := e.Switches()

	// Half 2: the identical instance installed in a native primitive.
	// The counter starts sharded; idle reconciling reads feed the policy
	// scale-down samples until it releases the switch back to CAS.
	c := reactive.NewCounter(
		reactive.WithPolicy(pol),
		reactive.WithInitialMode(reactive.ModeSharded),
	)
	const bound = 1 << 16
	ops := 0
	for c.Stats().Mode != reactive.ModeCAS {
		c.Add(1)
		c.Load()
		ops++
		if ops > bound {
			t.Fatalf("native counter never scaled down under the congestion policy (window %d, srtt %d)",
				pol.Window(), pol.SRTT())
		}
	}
	if got := c.Load(); got != int64(ops) {
		t.Fatalf("counter value %d after %d adds", got, ops)
	}
	if e.Switches() != simSwitches {
		t.Fatal("the native drive must not have touched the simulator engine")
	}
}
