// Package queueing implements the paper's central analytical contribution:
// a double-sided birth-death queueing model for one region of the city
// (Section 4). Positive states n mean n riders are waiting; negative
// states mean |n| idle drivers are congested in the region. Riders arrive
// Poisson(lambda), rejoining drivers arrive Poisson(mu), and impatient
// riders renege at a state-dependent rate pi(n) = e^(beta*n)/mu (Eq. 4).
//
// From the flow-balance steady state (Eqs. 5-6) the package derives the
// normalizing probability p0 and the expected idle time ET(lambda, mu) a
// driver will sit unassigned after rejoining the region, in the paper's
// three regimes:
//
//   - more riders arrive, lambda > mu   (Eqs. 7-10)
//   - more drivers rejoin, lambda < mu  (Eqs. 11-13, truncated at K)
//   - balanced, lambda = mu             (Eqs. 14-16)
//
// It also provides the batch-window arrival-rate estimators of
// Eqs. 18-19 and a Monte-Carlo chain simulator used to validate the
// closed forms in tests.
//
// # Consuming the model
//
// New (or NewDefault) builds a Model — the closed forms plus the
// reneging configuration — and Model.ExpectedIdleTime evaluates one
// (lambda, mu, k) point. Batch dispatchers work through an Analyzer
// instead: it reads a region's state (waiting riders, available
// drivers, window predictions) from the batch in place, once, on the
// batch's first query of that region, converts counts to rates, caches
// per-region ET values, and exposes the idle ratio
// IR = ET / (cost + ET) of Eq. 17 that scores rider-driver pairs. The
// Analyzer's CommitDestination/UncommitDestination implement Algorithm
// 2 line 11's mu-update feedback, which the IRG and LS dispatchers
// invoke as assignments commit.
package queueing
