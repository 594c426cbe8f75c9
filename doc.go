// Package repro reproduces Beng-Hong Lim's "Reactive Synchronization
// Algorithms for Multiprocessors" (MIT, 1994; ASPLOS '94 with Agarwal): a
// cycle-level Alewife-like multiprocessor simulator, the passive and
// reactive spin-lock and fetch-and-op protocols, whose protocol changes
// serialize at consensus objects, two-phase waiting algorithms with their
// competitive analysis, and the full experiment harness that regenerates
// every table and figure of the thesis's evaluation.
//
// See README.md for the layout, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// The adoptable native-Go library lives in the reactive subpackage:
// adaptive Mutex, Counter, RWMutex, and FetchOp primitives configured
// through an Options API, with context-aware acquisition (LockCtx,
// RLockCtx, TryLockFor, ValueCtx, LoadCtx) on a shared waiter-queue
// engine. The generic N-mode modal-object engine every mode change
// routes through — native and simulated alike — is reactive/modal, and
// the protocol-switching policies both layers consume are in
// reactive/policy, from the thesis's streak detectors up to the
// congestion-control policy (policy.Congestion) that treats residual
// costs as RTT samples and mode occupancy as a congestion window.
// Live telemetry rides on the uniform Stats surface: snapshots marshal
// to JSON, Stats.Sub converts two of them into a rate-ready delta, and
// reactive/reactivehttp exports a named-primitive registry over expvar
// and a /debug/reactive HTTP endpoint with per-interval mode residency
// and switch rates.
package repro
