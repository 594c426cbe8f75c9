package reactive

import (
	"fmt"
	"slices"
)

// MarshalText implements encoding.TextMarshaler so a Mode renders as its
// protocol name in JSON ("mode": "sharded") and any other text-based
// encoding, matching String.
func (m Mode) MarshalText() ([]byte, error) {
	return []byte(m.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler, accepting exactly
// the names String and MarshalText produce for the defined modes.
func (m *Mode) UnmarshalText(text []byte) error {
	i := slices.Index(modeNames[:], string(text))
	if i < 0 {
		return fmt.Errorf("reactive: unknown mode %q", text)
	}
	*m = Mode(i)
	return nil
}

// Sub returns the delta from an earlier snapshot prev to s, the idiom
// for converting cumulative Stats into rates: poll Stats() on an
// interval, Sub the previous snapshot, and divide the monotonic fields
// by the interval.
//
// The contract, field by field:
//
//   - Switches (and Readers.Switches) are monotonic counters; Sub
//     returns s's value minus prev's. The subtraction is unsigned and
//     wraps modulo 2⁶⁴, so a delta stays correct even across counter
//     wrap — and, conversely, a prev taken from a *different* primitive
//     (or from after a snapshot of s) produces a huge wrapped value
//     rather than an error. Pair snapshots of the same primitive, oldest
//     as prev.
//   - Mode, Waiters, and Readers.Shards are gauges; the delta keeps s's
//     (the newer snapshot's) value, since "current mode minus previous
//     mode" has no meaning.
//   - A zero-value prev is the identity: s.Sub(Stats{}) == s (with a
//     fresh Readers pointer when present).
//   - Readers: if s.Readers is nil the delta's Readers is nil,
//     whatever prev holds (the primitive has no reader engine). If
//     s.Readers is non-nil and prev.Readers is nil — a zero-value prev,
//     or a prev recorded before any reader activity — prev is treated
//     as a zero ReaderStats. The returned Readers pointer is always
//     freshly allocated; Sub never aliases either operand.
func (s Stats) Sub(prev Stats) Stats {
	d := Stats{
		Mode:     s.Mode,
		Switches: s.Switches - prev.Switches,
		Waiters:  s.Waiters,
	}
	if s.Readers != nil {
		var pr ReaderStats
		if prev.Readers != nil {
			pr = *prev.Readers
		}
		r := s.Readers.Sub(pr)
		d.Readers = &r
	}
	return d
}

// Sub returns the delta from an earlier reader-engine snapshot prev to
// r, with the same per-field semantics as Stats.Sub: Switches, Graces,
// and QuietGraces are monotonic counters (unsigned, wrapping
// subtraction), Mode and Shards are gauges that keep r's value.
func (r ReaderStats) Sub(prev ReaderStats) ReaderStats {
	return ReaderStats{
		Mode:        r.Mode,
		Switches:    r.Switches - prev.Switches,
		Shards:      r.Shards,
		Graces:      r.Graces - prev.Graces,
		QuietGraces: r.QuietGraces - prev.QuietGraces,
	}
}
