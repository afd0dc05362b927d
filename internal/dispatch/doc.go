// Package dispatch implements the batch vehicle-dispatching algorithms
// of Section 5 and the paper's comparison baselines:
//
//   - IRG: the idle-ratio oriented greedy of Algorithm 2, selecting
//     valid pairs by ascending idle ratio IR = ET/(cost+ET) with the
//     destination-region mu feedback of line 11.
//   - LS: the local search of Algorithm 3, which refines IRG's output by
//     swapping a driver's rider for a valid alternative with a smaller
//     idle ratio until convergence (Lemma 5.1).
//   - SHORT: Appendix C's serve-count variant — IRG with the score
//     changed to cost + ET, minimizing total time per service round.
//   - LTG: long-trip greedy (highest revenue first).
//   - NEAR: nearest-trip greedy (smallest pickup cost first).
//   - RAND: random valid assignment.
//   - POLAR: the predicted-distribution blueprint baseline (Tong et al.,
//     VLDB 2017), reimplemented as a region-level expected assignment
//     guiding per-batch matching; the POLAR type documents the
//     substitutions.
//   - UPPER: the paper's revenue upper bound — the most expensive orders
//     served while ignoring pickup distances.
//
// All dispatchers are deterministic given their seed and reusable across
// batches and runs.
//
// Dispatchers never price travel themselves: the engine prices each
// batch's candidate (driver, rider) pairs up front through one
// roadnet.PairCoster call, and every sim.Pair carries its
// PickupCost and its rider's TripCost, priced the first batch the rider
// holds a valid pair. A rider without one has no trip priced yet
// (Rider.TripCost is NaN): read it through sim.Context.TripCost, which
// prices it once, as UPPER does. What-if costs beyond the precomputed
// pairs go through sim.Context.PickupCost (the Pair's cost, or a
// Coster fallback) — never per-pair Coster.Cost calls in inner loops.
package dispatch
