package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEndMetrics are printed by every untraced run, on every workload.
// README.md gives each one's definition per workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"mem_peak_mb", "MiB"},
	{"lookup_mops", "Mkeys/s"},
	{"lookup_p50_ns", "ns"},
	{"lookup_p99_ns", "ns"},
	{"tune_p50_us", "us"},
	{"round_p50_ms", "ms"},
	{"round_p95_ms", "ms"},
	{"cpu_ms_per_round", "ms"},
	{"events_mps", "Mevents/s"},
	{"anu_spread_x", "x"},
	{"anu_ratio_x", "x"},
	{"anu_hot_ratio_x", "x"},
}

// probedStrategies are the registered placement strategies whose
// lookups every traced run times directly.
var probedStrategies = []string{"anu", "chord", "chord-bounded", "rendezvous", "weighted-static", "power-of-d"}

// simPolicies are the systems the sim workload compares.
var simPolicies = []string{"anu", "prescient", "vp", "chord-bounded", "rendezvous"}

// traceLayers are the layers spans are attributed to; each gets a
// self-time metric.
var traceLayers = []string{"hashx", "placement", "balancer", "delegate", "cluster", "journal", "clustersim", "policy", "loadgen"}

// perLayerMetrics lists every metric a traced run prints. A layer that
// the workload does not exercise reports 0.
func perLayerMetrics() []metricDef {
	defs := []metricDef{{"hashx.prehash_ns", "ns"}}
	for _, s := range probedStrategies {
		defs = append(defs, metricDef{"placement." + s + ".lookup_ns", "ns"})
	}
	defs = append(defs,
		metricDef{"placement.anu.tune_us", "us"},
		metricDef{"placement.chord-bounded.tune_us", "us"},
		metricDef{"placement.chord-bounded.encode_us", "us"},
		metricDef{"placement.chord-bounded.decode_us", "us"},
		metricDef{"placement.chord-bounded.snapshot_bytes", "B"},
		metricDef{"balancer.lookup_batch_ns", "ns"},
		metricDef{"balancer.publish_us", "us"},
		metricDef{"control.quorum_wait_ms", "ms"},
		metricDef{"control.tune_wait_ms", "ms"},
		metricDef{"control.fanout_ms", "ms"},
		metricDef{"control.install_skew_ms", "ms"},
		metricDef{"cluster.installs_per_round", "ratio"},
		metricDef{"cluster.msgs_per_round.heartbeat", "count"},
		metricDef{"cluster.msgs_per_round.report", "count"},
		metricDef{"cluster.msgs_per_round.map", "count"},
		metricDef{"cluster.bytes_per_round", "B"},
		metricDef{"cluster.send_drops", "count"},
		metricDef{"memnet.overflows", "count"},
		metricDef{"journal.append_p50_us", "us"},
		metricDef{"journal.append_p99_us", "us"},
		metricDef{"sim.events_per_cell", "count"},
		metricDef{"sim.engine_self_ms", "ms"},
	)
	for _, p := range simPolicies {
		defs = append(defs, metricDef{"policy." + p + ".retune_us", "us"}, metricDef{"policy." + p + ".place_ns", "ns"})
	}
	defs = append(defs, metricDef{"loadgen.late_p99_us", "us"})
	for _, l := range traceLayers {
		defs = append(defs, metricDef{"self." + l + "_ms", "ms"})
	}
	for _, m := range endToEndMetrics {
		defs = append(defs, metricDef{"overhead." + m.name, m.unit})
	}
	return defs
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// layerSet collects per-layer values by name.
type layerSet map[string]float64

// outcome is what one workload pass measured and checked.
type outcome struct {
	e2e       map[string]float64
	layers    layerSet
	attempted int64
	failed    int64
	failures  []string
	// msgsPerRound and digests let a traced pass be compared with the
	// untraced one (control and sim respectively).
	msgsPerRound float64
	digests      map[string]string
}

func newOutcome() *outcome {
	return &outcome{e2e: make(map[string]float64), layers: make(layerSet)}
}

// check records a failed output check.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) correct() bool { return len(o.failures) == 0 }

func (o *outcome) report() {
	for _, f := range o.failures {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
	}
}

func (o *outcome) endToEnd() *result {
	o.report()
	res := &result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, m := range endToEndMetrics {
		v, ok := o.e2e[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: metric %s not measured\n", m.name)
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res
}

func (o *outcome) perLayer() *result {
	o.report()
	res := &result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, m := range perLayerMetrics() {
		v := o.layers[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res
}

type comparison struct {
	ok   bool
	what string
}

// compareUntraced proves a traced pass ran the same program as the
// untraced one: equal simulation digests for every seed both ran, and
// control-plane message counts per round within 5%.
func (o *outcome) compareUntraced(plain *outcome) []comparison {
	var out []comparison
	for key, d := range o.digests {
		if pd, ok := plain.digests[key]; ok {
			out = append(out, comparison{pd == d, fmt.Sprintf("traced digest of %s differs from untraced", key)})
		}
	}
	if plain.msgsPerRound > 0 {
		rel := math.Abs(o.msgsPerRound-plain.msgsPerRound) / plain.msgsPerRound
		out = append(out, comparison{rel <= 0.05, fmt.Sprintf("traced messages per round %.0f vs untraced %.0f", o.msgsPerRound, plain.msgsPerRound)})
	}
	return out
}

// quantile returns the q-quantile of xs by nearest rank, sorting xs in
// place. It returns NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// histogram counts per-key latencies in fixed bins of 1/16 ns up to
// 8 µs; larger values count in the last bin.
type histogram struct {
	bins []uint64
	n    uint64
}

const histBinsPerNs = 16

func newHistogram() *histogram { return &histogram{bins: make([]uint64, 8192*histBinsPerNs)} }

func (h *histogram) add(ns float64) {
	i := min(int(ns*histBinsPerNs), len(h.bins)-1)
	h.bins[max(i, 0)]++
	h.n++
}

// quantile returns the middle of the bin holding the q-quantile, or
// NaN when the histogram is empty.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	var seen uint64
	for i, c := range h.bins {
		if seen += c; seen >= max(rank, 1) {
			return (float64(i) + 0.5) / histBinsPerNs
		}
	}
	return float64(len(h.bins)) / histBinsPerNs
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// environment is recorded with every result.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	StealPct   float64 `json:"steal_pct"`
}

// stealSample holds the steal and total jiffies from /proc/stat.
type stealSample struct{ steal, total float64 }

func readSteal() stealSample {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var s stealSample
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		s.total += x
		if i == 7 {
			s.steal = x
		}
	}
	return s
}

// newEnvironment describes the host and the steal time accrued since
// the run began.
func newEnvironment(since stealSample) environment {
	now := readSteal()
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	if dt := now.total - since.total; dt > 0 {
		env.StealPct = 100 * (now.steal - since.steal) / dt
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}
