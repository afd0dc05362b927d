//go:build race

package roadnet

// Under the race detector sync.Pool drops a share of what is put back,
// so counts of pooled allocations mean nothing there.
func init() { raceDetector = true }
