package main

import (
	"fmt"
	"time"

	"anurand/internal/clustersim"
	"anurand/internal/experiment"
	"anurand/internal/policy"
	"anurand/internal/workload"
)

const (
	// consistencySeeds is the number of fixed trace seeds, 1 to 40,
	// that every run simulates first and that alone feed the sim-time
	// metrics. ANU's latency ratio moves by 15% between medians of 40
	// seeds drawn afresh, so a fixed set makes these metrics compare
	// programs rather than seeds; the workload seed picks the seeds
	// simulated after them.
	consistencySeeds = 40
	// Figure 6(b)'s consistency spread leaves out the slowest server
	// and servers with fewer completed requests than this.
	fig6bWeakestServer = 0
	fig6bMinRequests   = 200
)

// timedPlacer times a policy's Retune calls from outside; in a traced
// run it also samples Place and records spans.
type timedPlacer struct {
	policy.Placer
	retuneUs []float64
	tr       *tracer
	parent   int32
	places   int64
	sampled  []float64
}

func (p *timedPlacer) Retune(env *policy.Env) error {
	t0 := time.Now()
	err := p.Placer.Retune(env)
	t1 := time.Now()
	p.retuneUs = append(p.retuneUs, us(t1.Sub(t0)))
	if p.tr != nil {
		p.tr.add(span{Name: "policy." + p.Name() + ".retune", Layer: "policy", Parent: p.parent, Start: p.tr.at(t0), End: p.tr.at(t1)})
	}
	return err
}

func (p *timedPlacer) Place(fs int) policy.ServerID {
	p.places++
	if p.tr == nil || p.places%16 != 0 {
		return p.Placer.Place(fs)
	}
	t0 := time.Now()
	id := p.Placer.Place(fs)
	p.sampled = append(p.sampled, float64(time.Since(t0)))
	return id
}

// cell is one policy on one trace of one seed.
type cell struct {
	seed   uint64
	trace  string
	policy string
}

func (c cell) String() string { return fmt.Sprintf("seed%d/%s/%s", c.seed, c.trace, c.policy) }

// cellResult is what a sweep keeps of one simulated cell. The full
// simulation result is dropped once the seed's numbers are taken, so a
// run's memory does not grow with the number of seeds it completes.
type cellResult struct {
	cell
	res      *clustersim.Result
	digest   string
	events   uint64
	requests int
	host     time.Duration
	placer   *timedPlacer
}

// traceSet holds one seed's traces by name.
type traceSet map[string]*workload.Trace

func newSimSuite(seed uint64) *experiment.Suite {
	return experiment.NewSuite(experiment.Config{Seed: seed, HashSeed: 42, DefaultVP: 25, Workers: 1})
}

// buildSeed generates one seed's synthetic and hot traces and builds
// every compared policy over each; the time it takes is set-up.
func buildSeed(seed uint64) (traceSet, []*cellResult, error) {
	suite := newSimSuite(seed)
	syn, err := suite.Synthetic()
	if err != nil {
		return nil, nil, err
	}
	hot, err := suite.HotSynthetic()
	if err != nil {
		return nil, nil, err
	}
	traces := traceSet{"synthetic": syn, "hot": hot}
	var cells []*cellResult
	for _, name := range []string{"synthetic", "hot"} {
		for _, p := range simPolicies {
			pl, err := suite.BuildPolicy(experiment.PolicyName(p), traces[name], 25)
			if err != nil {
				return nil, nil, fmt.Errorf("seed %d: %s on %s: %w", seed, p, name, err)
			}
			cells = append(cells, &cellResult{cell: cell{seed, name, p}, requests: len(traces[name].Requests), placer: &timedPlacer{Placer: pl}})
		}
	}
	return traces, cells, nil
}

// runCell simulates one cell and checks that every request completed.
func runCell(traces traceSet, c *cellResult, scratch *clustersim.Scratch, tr *tracer) error {
	cfg := clustersim.DefaultConfig(traces[c.trace], c.placer)
	cfg.Scratch = scratch
	c.placer.tr = tr
	t0 := time.Now()
	var id int32
	if tr != nil {
		id = tr.open("clustersim.cell", "clustersim", t0, 0)
		c.placer.parent = id
	}
	res, err := clustersim.Run(cfg)
	t1 := time.Now()
	if tr != nil {
		tr.close(id, t1)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", c, err)
	}
	c.res, c.host = res, t1.Sub(t0)
	c.digest, c.events = res.DeterminismDigest(), res.EventsRun
	return checkCell(c)
}

// checkCell fails a cell in which some request did not complete.
func checkCell(c *cellResult) error {
	if c.res.Completed != uint64(c.requests) || c.res.Dropped != 0 {
		return fmt.Errorf("%s: %d of %d requests completed, %d dropped", c, c.res.Completed, c.requests, c.res.Dropped)
	}
	return nil
}

// consistency holds one seed's sim-time numbers.
type consistency struct{ spread, ratio, hotRatio []float64 }

// add takes ANU's Figure 6(b) spread on the synthetic trace and its
// steady mean latency over prescient's on both traces from one seed's
// cells.
func (q *consistency) add(cells []*cellResult) {
	res := map[cell]*clustersim.Result{}
	for _, c := range cells {
		res[c.cell] = c.res
	}
	seed := cells[0].seed
	anu, pre := res[cell{seed, "synthetic", "anu"}], res[cell{seed, "synthetic", "prescient"}]
	hotANU, hotPre := res[cell{seed, "hot", "anu"}], res[cell{seed, "hot", "prescient"}]
	if anu == nil || pre == nil || hotANU == nil || hotPre == nil {
		return
	}
	q.spread = append(q.spread, fig6bSpread(anu))
	q.ratio = append(q.ratio, anu.SteadyMeanLatency()/pre.SteadyMeanLatency())
	q.hotRatio = append(q.hotRatio, hotANU.SteadyMeanLatency()/hotPre.SteadyMeanLatency())
}

// runSim sweeps seeds sequentially, simulating every policy on the
// synthetic and hot traces of each seed: first the fixed consistency
// seeds, then seeds drawn from the workload seed until the time is up.
func runSim(seed uint64, d time.Duration, tr *tracer) (*outcome, error) {
	o := newOutcome()
	o.digests = make(map[string]string)
	scratch := &clustersim.Scratch{}
	var (
		setups  []float64
		results []*cellResult
		cpu     time.Duration
		first   traceSet
		q       consistency
	)
	deadline := time.Now().Add(d)
	for i := uint64(0); i < consistencySeeds || time.Now().Before(deadline); i++ {
		traceSeed := i + 1
		if i >= consistencySeeds {
			traceSeed = seed*1000 + i
		}
		t0 := time.Now()
		traces, cells, err := buildSeed(traceSeed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if first == nil {
			first = traces
		}
		cpu0 := cpuTime()
		for _, c := range cells {
			o.attempted++
			if err := runCell(traces, c, scratch, tr); err != nil {
				o.failed++
				o.check(false, "%v", err)
				continue
			}
			o.digests[c.String()] = c.digest
			results = append(results, c)
		}
		cpu += cpuTime() - cpu0
		if i < consistencySeeds {
			q.add(cells)
		}
		for _, c := range cells {
			c.res = nil
		}
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no cell completed in %v", d)
	}
	// Re-run the first cell without the timing wrapper: the digest must
	// reproduce, which also shows the wrapper changes nothing.
	c0 := results[0]
	pl, err := newSimSuite(c0.seed).BuildPolicy(experiment.PolicyName(c0.policy), first[c0.trace], 25)
	if err != nil {
		return nil, err
	}
	again, err := clustersim.Run(clustersim.DefaultConfig(first[c0.trace], pl))
	if err != nil {
		return nil, err
	}
	o.check(again.DeterminismDigest() == c0.digest, "re-running %s gave digest %s, want %s", c0, again.DeterminismDigest(), c0.digest)

	var events uint64
	var requests int
	var host time.Duration
	perReq := make([]float64, 0, len(results))
	cellMs := make([]float64, 0, len(results))
	var retunes []float64
	for _, c := range results {
		events += c.events
		requests += c.requests
		host += c.host
		perReq = append(perReq, float64(c.host)/float64(c.requests))
		cellMs = append(cellMs, ms(c.host))
		retunes = append(retunes, c.placer.retuneUs...)
	}
	o.e2e["setup_s"] = median(setups)
	o.e2e["mem_peak_mb"] = peakRSSMiB()
	o.e2e["lookup_mops"] = float64(requests) / host.Seconds() / 1e6
	o.e2e["lookup_p50_ns"] = quantile(perReq, 0.50)
	o.e2e["lookup_p99_ns"] = quantile(perReq, 0.99)
	o.e2e["tune_p50_us"] = median(retunes)
	o.e2e["round_p50_ms"] = quantile(cellMs, 0.50)
	o.e2e["round_p95_ms"] = quantile(cellMs, 0.95)
	o.e2e["cpu_ms_per_round"] = ms(cpu) / float64(len(results))
	o.e2e["events_mps"] = float64(events) / host.Seconds() / 1e6
	o.e2e["anu_spread_x"] = median(q.spread)
	o.e2e["anu_ratio_x"] = median(q.ratio)
	o.e2e["anu_hot_ratio_x"] = median(q.hotRatio)

	if tr != nil {
		simLayers(o, results, events)
		names, _ := genKeys(seed)
		if err := probeLayers(names, tr, o.layers); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// fig6bSpread is the highest over the lowest per-server mean latency,
// leaving out the slowest server and servers with fewer than 200
// completed requests.
func fig6bSpread(res *clustersim.Result) float64 {
	lo, hi := 0.0, 0.0
	for id, st := range res.Servers {
		if id == fig6bWeakestServer || st.Latency.N() < fig6bMinRequests {
			continue
		}
		m := st.Latency.Mean()
		if lo == 0 || m < lo {
			lo = m
		}
		hi = max(hi, m)
	}
	if lo == 0 {
		return 0
	}
	return hi / lo
}

// simLayers fills the sim workload's per-layer metrics.
func simLayers(o *outcome, results []*cellResult, events uint64) {
	type agg struct{ retune, place []float64 }
	by := map[string]*agg{}
	var cellNs, policyNs float64
	for _, c := range results {
		a, ok := by[c.policy]
		if !ok {
			a = &agg{}
			by[c.policy] = a
		}
		a.retune = append(a.retune, c.placer.retuneUs...)
		a.place = append(a.place, c.placer.sampled...)
		cellNs += float64(c.host)
		for _, r := range c.placer.retuneUs {
			policyNs += r * 1e3
		}
		policyNs += mean(c.placer.sampled) * float64(c.placer.places)
	}
	for p, a := range by {
		o.layers["policy."+p+".retune_us"] = median(a.retune)
		o.layers["policy."+p+".place_ns"] = mean(a.place)
	}
	o.layers["sim.events_per_cell"] = float64(events) / float64(len(results))
	o.layers["sim.engine_self_ms"] = (cellNs - policyNs) / 1e6
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
