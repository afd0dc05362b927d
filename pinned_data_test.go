package mrvd

import "mrvd/internal/sim"

// pinnedAtParent holds TestPinnedOutputs' expectations, recorded at
// commit f5dc6e9 (the parent of PR 21) by running the test there and
// copying what it printed.
var pinnedAtParent = map[string]map[string]pinned{
	"cap0-great-circle-model": {
		"IRG":   {Summary: sim.Summary{Revenue: 336759.9838233381, Served: 606, Reneged: 487, Canceled: 0, Declines: 0, TotalOrders: 1113, Batches: 1200, PickupSeconds: 39801.89708262407, IdleClosed: 606, IdleSeconds: 280559.3972543791, TravelSamples: 0, TravelAbsErrSeconds: 0, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 377002.0079920082, InfEstimates: 5, TravelRecords: 0},
		"LS":    {Summary: sim.Summary{Revenue: 336759.98382333806, Served: 606, Reneged: 487, Canceled: 0, Declines: 0, TotalOrders: 1113, Batches: 1200, PickupSeconds: 39801.89708262407, IdleClosed: 606, IdleSeconds: 280559.3972543791, TravelSamples: 0, TravelAbsErrSeconds: 0, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 377002.0079920082, InfEstimates: 5, TravelRecords: 0},
		"POLAR": {Summary: sim.Summary{Revenue: 333354.5191041514, Served: 602, Reneged: 491, Canceled: 0, Declines: 0, TotalOrders: 1113, Batches: 1200, PickupSeconds: 40361.81428299087, IdleClosed: 602, IdleSeconds: 287058.6533501874, TravelSamples: 0, TravelAbsErrSeconds: 0, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 0, InfEstimates: 0, TravelRecords: 0},
		"SHORT": {Summary: sim.Summary{Revenue: 334205.9419321202, Served: 602, Reneged: 491, Canceled: 0, Declines: 0, TotalOrders: 1113, Batches: 1200, PickupSeconds: 39246.752047606366, IdleClosed: 602, IdleSeconds: 280251.8714955532, TravelSamples: 0, TravelAbsErrSeconds: 0, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 0, InfEstimates: 0, TravelRecords: 0},
	},
	"overheads-fixture": {
		"IRG":   {Summary: sim.Summary{Revenue: 321332.3722632291, Served: 582, Reneged: 505, Canceled: 0, Declines: 0, TotalOrders: 1113, Batches: 180, PickupSeconds: 36325.57822325396, IdleClosed: 582, IdleSeconds: 299638.108326227, TravelSamples: 0, TravelAbsErrSeconds: 0, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 0, InfEstimates: 544, TravelRecords: 0},
		"LS":    {Summary: sim.Summary{Revenue: 322653.9071020525, Served: 585, Reneged: 503, Canceled: 0, Declines: 0, TotalOrders: 1113, Batches: 180, PickupSeconds: 36658.137652110425, IdleClosed: 585, IdleSeconds: 300877.50903191546, TravelSamples: 0, TravelAbsErrSeconds: 0, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 0, InfEstimates: 548, TravelRecords: 0},
		"POLAR": {Summary: sim.Summary{Revenue: 325318.3726377892, Served: 583, Reneged: 504, Canceled: 0, Declines: 0, TotalOrders: 1113, Batches: 180, PickupSeconds: 36316.93739846554, IdleClosed: 583, IdleSeconds: 301929.11656983086, TravelSamples: 0, TravelAbsErrSeconds: 0, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 0, InfEstimates: 0, TravelRecords: 0},
		"SHORT": {Summary: sim.Summary{Revenue: 321332.3722632291, Served: 582, Reneged: 505, Canceled: 0, Declines: 0, TotalOrders: 1113, Batches: 180, PickupSeconds: 36325.57822325396, IdleClosed: 582, IdleSeconds: 299638.108326227, TravelSamples: 0, TravelAbsErrSeconds: 0, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 0, InfEstimates: 0, TravelRecords: 0},
	},
	"pooling": {
		"IRG":   {Summary: sim.Summary{Revenue: 321332.3722632291, Served: 582, Reneged: 505, Canceled: 0, Declines: 0, TotalOrders: 1113, Batches: 180, PickupSeconds: 36325.57822325396, IdleClosed: 582, IdleSeconds: 299638.108326227, TravelSamples: 0, TravelAbsErrSeconds: 0, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 0, InfEstimates: 544, TravelRecords: 0},
		"LS":    {Summary: sim.Summary{Revenue: 322653.9071020525, Served: 585, Reneged: 503, Canceled: 0, Declines: 0, TotalOrders: 1113, Batches: 180, PickupSeconds: 36658.137652110425, IdleClosed: 585, IdleSeconds: 300877.50903191546, TravelSamples: 0, TravelAbsErrSeconds: 0, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 0, InfEstimates: 548, TravelRecords: 0},
		"POLAR": {Summary: sim.Summary{Revenue: 325318.3726377892, Served: 583, Reneged: 504, Canceled: 0, Declines: 0, TotalOrders: 1113, Batches: 180, PickupSeconds: 36316.93739846554, IdleClosed: 583, IdleSeconds: 301929.11656983086, TravelSamples: 0, TravelAbsErrSeconds: 0, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 0, InfEstimates: 0, TravelRecords: 0},
		"POOL":  {Summary: sim.Summary{Revenue: 329866.606511312, Served: 597, Reneged: 492, Canceled: 0, Declines: 0, TotalOrders: 1113, Batches: 180, PickupSeconds: 38150.78254148691, IdleClosed: 564, IdleSeconds: 291787.57431611983, TravelSamples: 0, TravelAbsErrSeconds: 0, SharedServed: 28, DetourSeconds: 682.5852657446788}, EstimateSum: 0, InfEstimates: 0, TravelRecords: 0},
		"SHORT": {Summary: sim.Summary{Revenue: 321332.3722632291, Served: 582, Reneged: 505, Canceled: 0, Declines: 0, TotalOrders: 1113, Batches: 180, PickupSeconds: 36325.57822325396, IdleClosed: 582, IdleSeconds: 299638.108326227, TravelSamples: 0, TravelAbsErrSeconds: 0, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 0, InfEstimates: 0, TravelRecords: 0},
	},
	"reposition": {
		"IRG": {Summary: sim.Summary{Revenue: 275051.6973364533, Served: 497, Reneged: 587, Canceled: 0, Declines: 0, TotalOrders: 1113, Batches: 180, PickupSeconds: 33700.78624221084, IdleClosed: 497, IdleSeconds: 31560.075177433395, TravelSamples: 0, TravelAbsErrSeconds: 0, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 225971.90476190468, InfEstimates: 0, TravelRecords: 0},
		"LS":  {Summary: sim.Summary{Revenue: 275816.9923542821, Served: 499, Reneged: 587, Canceled: 0, Declines: 0, TotalOrders: 1113, Batches: 180, PickupSeconds: 33485.341450348526, IdleClosed: 499, IdleSeconds: 32429.213846898416, TravelSamples: 0, TravelAbsErrSeconds: 0, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 224767.61904761897, InfEstimates: 0, TravelRecords: 0},
	},
	"scenario-on": {
		"IRG":   {Summary: sim.Summary{Revenue: 323340.5777012116, Served: 588, Reneged: 453, Canceled: 47, Declines: 30, TotalOrders: 1113, Batches: 180, PickupSeconds: 37264.997904538635, IdleClosed: 588, IdleSeconds: 290507.4035830064, TravelSamples: 588, TravelAbsErrSeconds: 56355.02118384775, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 0, InfEstimates: 551, TravelRecords: 588},
		"LS":    {Summary: sim.Summary{Revenue: 316917.4518595705, Served: 571, Reneged: 458, Canceled: 60, Declines: 28, TotalOrders: 1113, Batches: 180, PickupSeconds: 35836.05718378986, IdleClosed: 571, IdleSeconds: 289577.6937322294, TravelSamples: 571, TravelAbsErrSeconds: 50690.11815584385, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 0, InfEstimates: 522, TravelRecords: 571},
		"POLAR": {Summary: sim.Summary{Revenue: 316412.58340978407, Served: 563, Reneged: 457, Canceled: 66, Declines: 26, TotalOrders: 1113, Batches: 180, PickupSeconds: 34768.552607573474, IdleClosed: 563, IdleSeconds: 288861.37083001214, TravelSamples: 563, TravelAbsErrSeconds: 54499.20474874915, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 0, InfEstimates: 0, TravelRecords: 563},
		"SHORT": {Summary: sim.Summary{Revenue: 328830.2240505962, Served: 594, Reneged: 452, Canceled: 43, Declines: 26, TotalOrders: 1113, Batches: 180, PickupSeconds: 37339.14682969876, IdleClosed: 594, IdleSeconds: 293426.07752299274, TravelSamples: 594, TravelAbsErrSeconds: 57168.55909037714, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 0, InfEstimates: 0, TravelRecords: 594},
	},
	"two-shard-oracle": {
		"IRG":   {Summary: sim.Summary{Revenue: 327838.51991971623, Served: 597, Reneged: 495, Canceled: 0, Declines: 0, TotalOrders: 1113, Batches: 720, PickupSeconds: 38510.679792195595, IdleClosed: 597, IdleSeconds: 289392.88503049663, TravelSamples: 0, TravelAbsErrSeconds: 0, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 471399.5238095238, InfEstimates: 5, TravelRecords: 0},
		"LS":    {Summary: sim.Summary{Revenue: 327838.51991971623, Served: 597, Reneged: 495, Canceled: 0, Declines: 0, TotalOrders: 1113, Batches: 720, PickupSeconds: 38510.67979219559, IdleClosed: 597, IdleSeconds: 289392.88503049663, TravelSamples: 0, TravelAbsErrSeconds: 0, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 471399.5238095238, InfEstimates: 5, TravelRecords: 0},
		"POLAR": {Summary: sim.Summary{Revenue: 328358.33576073323, Served: 601, Reneged: 492, Canceled: 0, Declines: 0, TotalOrders: 1113, Batches: 720, PickupSeconds: 39955.164344107325, IdleClosed: 601, IdleSeconds: 288590.6700752604, TravelSamples: 0, TravelAbsErrSeconds: 0, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 0, InfEstimates: 0, TravelRecords: 0},
		"SHORT": {Summary: sim.Summary{Revenue: 325335.6087896103, Served: 594, Reneged: 498, Canceled: 0, Declines: 0, TotalOrders: 1113, Batches: 720, PickupSeconds: 38407.810954067725, IdleClosed: 594, IdleSeconds: 287558.6172432757, TravelSamples: 0, TravelAbsErrSeconds: 0, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 0, InfEstimates: 0, TravelRecords: 0},
	},
}

// pinnedRoadWork and pinnedRoadWorkSettled hold TestPinnedRoadWork's
// expectations, recorded at commit 6904d87 (the parent of PR 23).
var pinnedRoadWork = pinned{Summary: sim.Summary{Revenue: 266798.1539761335, Served: 476, Reneged: 617, Canceled: 0, Declines: 0, TotalOrders: 1113, Batches: 720, PickupSeconds: 36727.33587508734, IdleClosed: 476, IdleSeconds: 314559.1412445401, TravelSamples: 0, TravelAbsErrSeconds: 0, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 386666.66666666674, InfEstimates: 4, TravelRecords: 0}

const pinnedRoadWorkSettled = 991807.0
