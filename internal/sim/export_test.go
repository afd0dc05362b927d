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

// GridScans returns how many grid scans the engine's candidate search
// has made.
func (e *Engine) GridScans() int { return e.scans }

// CandidatesGathered returns how many entries grid scans and change
// logs have added to the engine's candidate lists.
func (e *Engine) CandidatesGathered() int { return e.gathered }

// CandidatesOrdered returns how many candidate entries the engine has
// put in nearest-first order.
func (e *Engine) CandidatesOrdered() int { return e.ordered }
