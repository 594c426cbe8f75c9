//go:build !purego && !reactive_noprocpin

package affinity

import (
	_ "unsafe" // for go:linkname
)

// The runtime pushes these symbols to package sync (see
// sync.runtime_procPin in runtime/proc.go); pulling a pushed linkname
// is permitted under the linker's -checklinkname default, so this is
// the same mechanism sync.Pool's per-P caches are built on.

//go:linkname runtime_procPin sync.runtime_procPin
//go:nosplit
func runtime_procPin() int

//go:linkname runtime_procUnpin sync.runtime_procUnpin
//go:nosplit
func runtime_procUnpin()

// runtime.cheaprand is pushed for linkname users (runtime/rand.go keeps
// its signature fixed for them, go.dev/issue/67401).
//
//go:linkname cheaprand runtime.cheaprand
//go:nosplit
func cheaprand() uint32

// Exact reports that Pin returns the exact current P index (the
// procPin implementation, not the stripe-hash fallback).
const Exact = true

// Pin disables preemption and returns the current P's index. Every Pin
// must be paired with an Unpin on the same goroutine, and the code
// between them must not block or call arbitrary user code.
func Pin() int { return runtime_procPin() }

// Unpin re-enables preemption after a Pin.
func Unpin() { runtime_procUnpin() }

// Rand returns a cheap pseudo-random value from the running thread's
// generator (runtime.cheaprand, wyrand state kept on the M): no shared
// write and no lock, about a nanosecond. It samples events; it is not
// for anything that needs good randomness.
func Rand() uint32 { return cheaprand() }
