package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"anurand"
	"anurand/internal/placement"
	"anurand/internal/rng"
)

const (
	// lookupNames is the number of distinct file-set names keys are
	// drawn from; lookupStream is how many Zipf draws a run cycles
	// through.
	lookupNames  = 1 << 18
	lookupStream = 1 << 20
	lookupBatch  = 256
	zipfExponent = 1.1
	zipfSegment  = 4096
	zipfHotSets  = 8
	// setupReps is how many times a run repeats its set-up; setup_s is
	// the median.
	setupReps = 5
	// tunePeriod is the lookup workload's publisher cadence.
	tunePeriod = time.Millisecond
)

// genKeys draws the seed's file-set names and a Zipf-distributed key
// stream over them. The stream is made of segments of zipfSegment
// keys; each segment maps Zipf ranks to names through one of
// zipfHotSets random bijections, so several hot sets share the load.
// With a single hot set a handful of names carry a fifth of all
// lookups, and the hash probes those few names happen to need move a
// run's throughput by 15% from seed to seed; with a fresh hot set per
// segment the working set outgrows the caches and the run measures
// memory contention from other tenants instead.
func genKeys(seed uint64) (names, stream []string) {
	src := rng.New(seed)
	names = make([]string, lookupNames)
	for i := range names {
		names[i] = fmt.Sprintf("/vol%02d/fs-%016x", i%64, src.Uint64())
	}
	var mult, off [zipfHotSets]uint64
	for i := range mult {
		mult[i], off[i] = src.Uint64()|1, src.Uint64() // odd multiplier: a bijection mod 2^18
	}
	z := rng.NewZipf(lookupNames, zipfExponent)
	stream = make([]string, lookupStream)
	for i := range stream {
		h := (i / zipfSegment) % zipfHotSets
		rank := uint64(z.Sample(src))
		stream[i] = names[(rank*mult[h]+off[h])&(lookupNames-1)]
	}
	return names, stream
}

// runLookup drives one Balancer over the paper's five servers with a
// closed-loop batch reader and a 1 kHz open-loop tuner.
func runLookup(seed uint64, d time.Duration, tr *tracer) (*outcome, error) {
	o := newOutcome()
	servers := make([]anurand.ServerID, len(paperSpeeds))
	weights := make(map[anurand.ServerID]float64, len(servers))
	for i, sp := range paperSpeeds {
		servers[i] = anurand.ServerID(i)
		weights[servers[i]] = sp
	}
	var (
		names, stream []string
		b             *anurand.Balancer
		setups        []float64
	)
	for i := 0; i < setupReps; i++ {
		names, stream, b = nil, nil, nil
		runtime.GC() // each repetition starts from the same heap
		t0 := time.Now()
		names, stream = genKeys(seed)
		var err error
		b, err = anurand.NewWithOptions(servers, anurand.Options{HashSeed: seed, Strategy: placement.StrategyANU, Weights: weights})
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.e2e["setup_s"] = median(setups)

	var (
		wg      sync.WaitGroup
		seq     atomic.Uint64 // odd while a Tune is in flight: a seqlock for the sample check
		rd      = readerStats{perKey: newHistogram()}
		wr      writerStats
		tuneErr error
	)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	wg.Add(2)
	go func() {
		defer wg.Done()
		readLoop(b, stream, deadline, &seq, tr, &rd)
	}()
	go func() {
		defer wg.Done()
		tuneErr = tuneLoop(b, start, deadline, &seq, tr, &wr)
	}()
	wg.Wait()
	cpu := cpuTime() - cpu0
	if tuneErr != nil {
		return nil, tuneErr
	}

	o.attempted = rd.keys + int64(len(wr.tune))
	o.failed = rd.unresolved
	o.check(rd.unresolved == 0, "%d lookups did not resolve to a configured server", rd.unresolved)
	o.check(rd.mismatches == 0, "%d sampled batch results differ from Balancer.Lookup", rd.mismatches)
	o.check(rd.samples > 0, "no batch was sampled against Balancer.Lookup")
	n := checkBatchAgainstLookup(b, names[:4096], len(servers))
	o.check(n == 0, "after the run, %d of 4096 keys differ between LookupBatch and Lookup", n)

	secs := rd.elapsed.Seconds()
	o.e2e["mem_peak_mb"] = peakRSSMiB()
	o.e2e["lookup_mops"] = float64(rd.keys) / secs / 1e6
	o.e2e["lookup_p50_ns"] = rd.perKey.quantile(0.50)
	o.e2e["lookup_p99_ns"] = rd.perKey.quantile(0.99)
	o.e2e["tune_p50_us"] = median(wr.tune)
	o.e2e["round_p50_ms"] = quantile(wr.round, 0.50)
	o.e2e["round_p95_ms"] = quantile(wr.round, 0.95)
	o.e2e["cpu_ms_per_round"] = ms(cpu) / float64(len(wr.tune))
	o.e2e["events_mps"] = float64(rd.keys+int64(len(wr.tune))) / secs / 1e6
	shares := make(map[placement.ServerID]float64)
	for id, s := range b.Shares() {
		shares[placement.ServerID(id)] = s
	}
	q := modelQuality(shares, func(id placement.ServerID) float64 { return paperSpeeds[id] })
	o.e2e["anu_spread_x"], o.e2e["anu_ratio_x"], o.e2e["anu_hot_ratio_x"] = q.spread, q.ratio, q.hotRatio

	if tr != nil {
		o.layers["balancer.lookup_batch_ns"] = o.e2e["lookup_p50_ns"]
		o.layers["loadgen.late_p99_us"] = quantile(wr.late, 0.99)
		if err := probeLayers(names, tr, o.layers); err != nil {
			return nil, err
		}
		o.layers["balancer.publish_us"] = o.e2e["tune_p50_us"] - o.layers["placement.anu.tune_us"]
	}
	return o, nil
}

type readerStats struct {
	keys, unresolved    int64
	samples, mismatches int64
	perKey              *histogram
	elapsed             time.Duration
}

// readLoop is the closed-loop reader: back-to-back LookupBatch calls
// on 256-key batches, timed per batch into a fixed-size histogram so
// that memory does not grow with throughput. Every 64th batch is
// re-resolved key by key with Lookup; the comparison counts only when
// no Tune ran in between, which the seqlock seq proves.
func readLoop(b *anurand.Balancer, stream []string, deadline time.Time, seq *atomic.Uint64, tr *tracer, st *readerStats) {
	owners := make([]anurand.ServerID, lookupBatch)
	start := time.Now()
	pos := 0
	for n := 0; ; n++ {
		keys := stream[pos : pos+lookupBatch]
		pos += lookupBatch
		if pos+lookupBatch > len(stream) {
			pos = 0
		}
		sampled := n%64 == 0
		s0 := seq.Load()
		t0 := time.Now()
		b.LookupBatch(keys, owners)
		t1 := time.Now()
		st.perKey.add(float64(t1.Sub(t0)) / lookupBatch)
		st.keys += int64(len(keys))
		st.unresolved += int64(countForeign(owners, len(paperSpeeds)))
		if sampled {
			var bad int64
			for j := 0; j < lookupBatch; j += 37 {
				if id, ok := b.Lookup(keys[j]); !ok || id != owners[j] {
					bad++
				}
			}
			if s0%2 == 0 && seq.Load() == s0 {
				st.samples++
				st.mismatches += bad
			}
		}
		if tr != nil && n%256 == 0 {
			tr.add(span{Name: "balancer.lookup_batch", Layer: "balancer", Start: tr.at(t0), End: tr.at(t1)})
		}
		if !t1.Before(deadline) {
			st.elapsed = t1.Sub(start)
			return
		}
	}
}

// countForeign counts owners outside the configured ids [0, k),
// including the no-owner marker -1.
func countForeign[ID ~int32](owners []ID, k int) int {
	n := 0
	for _, id := range owners {
		if id < 0 || int(id) >= k {
			n++
		}
	}
	return n
}

// checkBatchAgainstLookup resolves keys both ways on a quiescent
// Balancer and returns how many disagree or fall outside [0, k).
func checkBatchAgainstLookup(b *anurand.Balancer, keys []string, k int) int {
	owners := make([]anurand.ServerID, len(keys))
	b.LookupBatch(keys, owners)
	bad := countForeign(owners, k)
	for i, key := range keys {
		if id, ok := b.Lookup(key); !ok || id != owners[i] {
			bad++
		}
	}
	return bad
}

type writerStats struct {
	tune, round, late []float64 // µs, ms, µs
}

// tuneLoop is the open-loop publisher: one Tune every tunePeriod, with
// reports derived from the Balancer's shares and the paper's speeds.
// A round's latency runs from when it was due to when Tune returned.
func tuneLoop(b *anurand.Balancer, start, deadline time.Time, seq *atomic.Uint64, tr *tracer, st *writerStats) error {
	reports := make([]anurand.Report, len(paperSpeeds))
	for k := 1; ; k++ {
		due := start.Add(time.Duration(k) * tunePeriod)
		if due.After(deadline) {
			return nil
		}
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		begin := time.Now()
		shares := b.Shares()
		for i, sp := range paperSpeeds {
			id := anurand.ServerID(i)
			sh := shares[id]
			reports[i] = anurand.Report{Server: id, Requests: uint64(1 + 1000*sh), LatencySeconds: 0.002 + sh/sp}
		}
		seq.Add(1)
		t0 := time.Now()
		_, err := b.Tune(reports)
		t1 := time.Now()
		seq.Add(1)
		if err != nil {
			return fmt.Errorf("tune round %d: %w", k, err)
		}
		st.tune = append(st.tune, us(t1.Sub(t0)))
		st.round = append(st.round, ms(t1.Sub(due)))
		st.late = append(st.late, us(begin.Sub(due)))
		if tr != nil {
			id := tr.add(span{Name: "loadgen.tune_round", Layer: "loadgen", Start: tr.at(begin), End: tr.at(t1)})
			tr.add(span{Name: "balancer.tune", Layer: "balancer", Parent: id, Start: tr.at(t0), End: tr.at(t1)})
		}
	}
}
