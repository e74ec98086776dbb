//go:build race

package algorithms

// raceEnabled lets heavyweight tests scale down under the race detector,
// whose memory and time multipliers make full-size runs impractical.
const raceEnabled = true
