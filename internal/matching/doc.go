// Package matching provides bipartite assignment algorithms: an O(n^3)
// Hungarian (Kuhn-Munkres) solver for maximum-weight matching — the
// exact optimum internal/dispatch's tests hold every dispatcher's batch
// revenue against on small instances — and a greedy matcher for
// comparison and testing.
package matching
