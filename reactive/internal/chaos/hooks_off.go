//go:build !reactive_chaos

package chaos

// Built reports whether this binary carries the fault-injection
// machinery. Without the reactive_chaos build tag the hooks below are
// empty functions: the compiler inlines them away and dead-codes their
// constant-string arguments, so an instrumented fast path costs exactly
// what an uninstrumented one does (pinned by the zero-allocation
// tests).
const Built = false

// Point is a fault point: a no-op in this build.
func Point(id string) {}

// PinnedPoint is a fault point on a code path that may hold a procPin:
// a no-op in this build.
func PinnedPoint(id string) {}

// Enable installs a schedule. Without the reactive_chaos build tag the
// hooks are compiled out, so Enable reports false and injects nothing;
// callers (cmd/torture) surface that so a run without the tag is never
// mistaken for a chaos run.
func Enable(s *Schedule) bool { return false }

// Disable removes the active schedule; a no-op in this build.
func Disable() {}

// Stats reports per-point activity; always empty in this build.
func Stats() []PointStat { return nil }
