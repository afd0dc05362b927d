// Package roadnet implements the road-network substrate the paper's
// problem definition is stated on: a weighted graph G = <V, E> where each
// edge carries a travel cost, plus single-source shortest paths (one
// Dijkstra loop over a typed binary heap), nearest-node snapping for arbitrary lat/lng
// coordinates, and a synthetic Manhattan-style grid network generator for
// cities where no real map is shipped.
//
// Dispatch algorithms never touch the graph directly; they consume a
// Coster, which is either graph-backed (shortest-path travel time) or the
// cheaper great-circle approximation at a configured speed. Both are
// provided here so experiments can ablate the choice.
//
// The hot path is batched: BatchCoster prices a whole sources×targets
// matrix in one call and its optional extension PairCoster a list of
// (source, target) pairs — the shape of a dispatch batch, where each
// rider's candidates are the few drivers in its own reach. GraphCoster
// serves both from one core: every endpoint snapped once (and the snap
// memoized, so a stationary driver is not re-snapped next batch),
// source nodes deduplicated, and each unique source's cached
// shortest-path tree extended just far enough to cover that source's
// own targets, on a parallel worker pool — bitwise-identical to
// per-pair Cost queries, with several times less shortest-path work
// (see GraphCoster.Stats, TestBatchCostsFewerComputations,
// TestCostPairsSettlesLess and bench/'s roadnet.settled_per_order).
// Single-pair Cost remains the compatibility shim, completing its
// source's tree. Trees are memoized under clock (second-chance)
// eviction, in a cache sized by default to hold one tree per node up to
// a 64 MiB budget of distance arrays (never fewer than 512 trees), so a
// city the size of the synthetic grid keeps its whole working set.
package roadnet
