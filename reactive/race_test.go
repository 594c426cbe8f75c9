//go:build race

package reactive

// raceEnabled reports that the race detector is on. sync.Pool then
// drops a random quarter of what is put back, so a pooled spare is not
// always there to reuse.
const raceEnabled = true
