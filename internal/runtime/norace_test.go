//go:build !race

package runtime

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
