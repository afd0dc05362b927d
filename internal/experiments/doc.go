// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6 and Appendices A-C) on the synthetic NYC-like
// workload. Each experiment is registered by its paper id ("table3",
// "fig7", ...) plus the design-choice ablations ("ablation-*"), and
// writes a plain-text table with the same rows/series the paper reports.
//
// Scale: experiments default to a configurable fraction of the paper's
// setup (282,255 orders and 1K-8K drivers on a 16x16 NYC grid). At
// Scale=1.0 the workload matches the paper's volume; the default 0.25
// keeps a full sweep laptop-friendly.
package experiments
