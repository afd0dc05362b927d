//go:build race

package experiments

// Under the race detector a simulated day costs ~10x; the heavy smoke
// then runs only the raceSmoke presets.
func init() { raceEnabled = true }
