//go:build !race

package reactive

// raceEnabled reports that the race detector is on (see race_test.go).
const raceEnabled = false
