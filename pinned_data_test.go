package mrvd

import (
	"mrvd/internal/roadnet"
	"mrvd/internal/sim"
)

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

// pinnedRoadWorkExact is the shortest-path work TestPinnedRoadWork's
// replay costs with pickup trees priced pair by pair and extended only
// as far as each batch reads, and each trip priced the first batch its
// rider holds a valid pair. Resumed and CacheHits, recorded at commit
// 4f48c0a, count the trees reused across batches: a coster that drops
// a tree or fails to republish one reads fewer.
var pinnedRoadWorkExact = roadnet.CosterStats{PartialTrees: 960, Resumed: 514, SettledNodes: 149873, CacheHits: 7042}

// pinnedRoadTripReaders holds TestPinnedRoadTripReaders' expectations,
// recorded at commit 4356c6f.
var pinnedRoadTripReaders = map[string]pinned{
	"pooling": {Summary: sim.Summary{Revenue: 269257.9290764303, Served: 480, Reneged: 613, Canceled: 0, Declines: 0, TotalOrders: 1113, Batches: 720, PickupSeconds: 37633.38800869457, IdleClosed: 462, IdleSeconds: 311113.43387404975, TravelSamples: 0, TravelAbsErrSeconds: 0, SharedServed: 16, DetourSeconds: 257.0487449739536}, EstimateSum: 0, InfEstimates: 0, TravelRecords: 0},
	"upper":   {Summary: sim.Summary{Revenue: 695472.7006433931, Served: 1065, Reneged: 30, Canceled: 0, Declines: 0, TotalOrders: 1113, Batches: 720, PickupSeconds: 0, IdleClosed: 1065, IdleSeconds: 102140.9603721134, TravelSamples: 0, TravelAbsErrSeconds: 0, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 0, InfEstimates: 0, TravelRecords: 0},
}

// pinnedPaperDay holds TestPaperScaleDayPinned's expectations, recorded
// at commit 7a0f819.
var pinnedPaperDay = map[string]pinned{
	"IRG":  {Summary: sim.Summary{Revenue: 1.3282875328239748e+08, Served: 234043, Reneged: 90780, Canceled: 0, Declines: 0, TotalOrders: 324978, Batches: 28800, PickupSeconds: 1.257800664190287e+07, IdleClosed: 234043, IdleSeconds: 1.1291691280043961e+08, TravelSamples: 0, TravelAbsErrSeconds: 0, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 1.2913770255376913e+08, InfEstimates: 161, TravelRecords: 0},
	"LS":   {Summary: sim.Summary{Revenue: 1.3292789448674142e+08, Served: 234279, Reneged: 90538, Canceled: 0, Declines: 0, TotalOrders: 324978, Batches: 28800, PickupSeconds: 1.2702282980438612e+07, IdleClosed: 234279, IdleSeconds: 1.1269763963662738e+08, TravelSamples: 0, TravelAbsErrSeconds: 0, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 1.2912743306921086e+08, InfEstimates: 167, TravelRecords: 0},
	"NEAR": {Summary: sim.Summary{Revenue: 1.2388914778453076e+08, Served: 218195, Reneged: 106584, Canceled: 0, Declines: 0, TotalOrders: 324978, Batches: 28800, PickupSeconds: 1.0142394931931436e+07, IdleClosed: 218195, IdleSeconds: 1.2136576944726641e+08, TravelSamples: 0, TravelAbsErrSeconds: 0, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 0, InfEstimates: 0, TravelRecords: 0},
	"RAND": {Summary: sim.Summary{Revenue: 1.2829862933673577e+08, Served: 225812, Reneged: 99002, Canceled: 0, Declines: 0, TotalOrders: 324978, Batches: 28800, PickupSeconds: 1.545853486989675e+07, IdleClosed: 225812, IdleSeconds: 1.1430788408367673e+08, TravelSamples: 0, TravelAbsErrSeconds: 0, SharedServed: 0, DetourSeconds: 0}, EstimateSum: 0, InfEstimates: 0, TravelRecords: 0},
}

// pinnedPaperDayPairs is the digest of every batch's valid pairs in
// TestPaperScaleDayPinned's IRG replay, recorded at commit 637d1e0.
var pinnedPaperDayPairs = "1384942 pairs 87fc4645a6ec3958"
