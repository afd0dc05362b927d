// Package experiments is the registry of the repo's experiment presets.
// A preset is a grid plus a renderer: Grids describes (series × layer ×
// fleet × seed) matrices — package matrix runs each as one core.Sweep
// call, the only code that materializes instances, shares histories and
// trained predictors, and schedules cells — and Render turns the grid's
// per-trial records into text. Every simulated artifact of the paper's
// evaluation (Section 6 and Appendices A-C: "table3", "table4",
// "fig6"-"fig10", "fig13") and the design-choice ablations
// ("ablation-*") is such a preset, printing the rows and series the
// paper reports, next to the matrix reports ("disruptions", "pooling",
// "fleets") that render the generic markdown with confidence intervals
// and paired comparisons. The artifacts that only sample the workload
// ("table6"-"table8", "fig5", "fig11", "fig12") register in the same
// list with a renderer and no grid. cmd/mrvd-exp runs them all.
//
// Scale: Params sizes every preset as a fraction of the paper's setup
// (282,255 orders and 1K-8K drivers on a 16x16 NYC grid). At Scale 1.0
// the workload matches the paper's volume; the default 0.05 with 5
// instances per data point keeps a whole grid laptop-friendly.
package experiments
