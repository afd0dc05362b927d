// Package roadnet implements the road-network substrate the paper's
// problem definition is stated on: a weighted graph G = <V, E> where each
// edge carries a travel cost, plus single-source shortest paths,
// nearest-node snapping for arbitrary lat/lng coordinates, and a
// synthetic Manhattan-style grid network generator for cities where no
// real map is shipped.
//
// Shortest paths run one Dijkstra loop over Dial's bucket queue, each
// bucket half the lightest arc wide, so a relaxation always lands at
// least one bucket past the one being drained and no entry can improve
// another in its own bucket: any drain order settles every node at the
// float a binary heap gives. Only a bucket holding a target is drained
// in key order, so a run stops at the same horizon with the same
// settled set; a graph with a 0-cost arc, or arcs spread beyond 2^16,
// keeps a binary heap (internal/heapq).
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
// source's tree. Every source node keeps its one tree for the coster's
// lifetime, in a table indexed by node: at most nodes² distances, 42 MB
// on the 48×48 synthetic grid.
package roadnet
