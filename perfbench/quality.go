package main

import (
	"math"
	"slices"

	"anurand/internal/placement"
)

// hotUtilization is the cluster utilization of the hot latency model,
// the same operating point as the sim workload's HotSynthetic trace.
const hotUtilization = 0.8

// quality holds the consistency numbers of one placement.
type quality struct{ spread, ratio, hotRatio float64 }

// modelQuality scores a placement under the closed-loop observer's
// latency model, latency = 0.002 s + share/speed, the model the lookup
// and control workloads report to their controllers:
//   - spread is the highest over the lowest modeled latency, leaving
//     out the slowest servers as Figure 6(b) does;
//   - ratio is the share-weighted mean latency over that of the
//     prescient placement, whose shares are proportional to speed;
//   - hotRatio is the same ratio under an M/M/1 model at 80%
//     utilization, latency = 1/(speed - load); a server loaded past
//     its speed counts as 100 times its unloaded latency.
func modelQuality(shares map[placement.ServerID]float64, speed func(placement.ServerID) float64) quality {
	ids := make([]placement.ServerID, 0, len(shares))
	var total, slowest float64
	slowest = math.Inf(1)
	for id := range shares {
		ids = append(ids, id)
		total += speed(id)
		slowest = min(slowest, speed(id))
	}
	slices.Sort(ids) // a fixed summation order keeps the result bit-exact
	lo, hi := math.Inf(1), 0.0
	var mean, hotMean, hotIdeal float64
	for _, id := range ids {
		sh, v := shares[id], speed(id)
		lat := 0.002 + sh/v
		mean += sh * lat
		if v > slowest {
			lo, hi = min(lo, lat), max(hi, lat)
		}
		free := v - hotUtilization*total*sh
		hotMean += sh / max(free, v/100)
		hotIdeal += (v / total) / (v * (1 - hotUtilization))
	}
	ideal := 0.002 + 1/total
	return quality{spread: hi / lo, ratio: mean / ideal, hotRatio: hotMean / hotIdeal}
}
