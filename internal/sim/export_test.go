package sim

import "slices"

// RejoinTimes returns a copy of every region's scheduled rejoin times,
// for tests that recount the forecast from them.
func (e *Engine) RejoinTimes() [][]float64 {
	out := make([][]float64, len(e.fc.rejoins))
	for k, times := range e.fc.rejoins {
		out[k] = slices.Clone(times)
	}
	return out
}
