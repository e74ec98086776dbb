//go:build race

package server

// raceEnabled skips assertions on allocated bytes: the race detector's shadow
// allocations are not the code's.
const raceEnabled = true
