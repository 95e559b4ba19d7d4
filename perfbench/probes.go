package main

import (
	"fmt"
	"time"

	"anurand/internal/hashx"
	"anurand/internal/placement"
)

// paperSpeeds are the paper's five server speeds, also passed as
// weights to the weight-aware strategies.
var paperSpeeds = []float64{1, 3, 5, 7, 9}

// sink keeps probe results live so the compiler cannot drop the calls.
var sink int64

// modelReports builds the closed-loop observer's reports for a
// placement: each server serves in proportion to its share and its
// latency grows with share divided by speed.
func modelReports(s placement.Strategy, speed func(placement.ServerID) float64) []placement.Report {
	shares := s.Shares()
	ids := s.Servers()
	reps := make([]placement.Report, len(ids))
	for i, id := range ids {
		sh := shares[id]
		reps[i] = placement.Report{Server: id, Requests: uint64(1 + 1000*sh), Latency: 0.002 + sh/speed(id)}
	}
	return reps
}

// probeLayers times the public hash and strategy functions directly,
// outside any workload, and records one span per timed batch.
func probeLayers(keys []string, tr *tracer, layers layerSet) error {
	const batch, rounds = 256, 400
	digests := make([]hashx.Digest, batch)

	perKey := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		ks := keys[(r*batch)%(len(keys)-batch):][:batch]
		t0 := time.Now()
		for i, k := range ks {
			digests[i] = hashx.Prehash(k)
		}
		t1 := time.Now()
		tr.add(span{Name: "hashx.prehash", Layer: "hashx", Start: tr.at(t0), End: tr.at(t1)})
		perKey = append(perKey, float64(t1.Sub(t0))/batch)
	}
	layers["hashx.prehash_ns"] = median(perKey)

	ids := make([]placement.ServerID, len(paperSpeeds))
	weights := make(map[placement.ServerID]float64, len(ids))
	for i, sp := range paperSpeeds {
		ids[i] = placement.ServerID(i)
		weights[ids[i]] = sp
	}
	for _, name := range probedStrategies {
		s, err := placement.New(name, ids, placement.Options{HashSeed: 42, Weights: weights})
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		dl, ok := s.(placement.DigestLookuper)
		if !ok {
			return fmt.Errorf("probe %s: strategy has no digest lookup", name)
		}
		perKey = perKey[:0]
		for r := 0; r < rounds; r++ {
			ks := keys[(r*batch)%(len(keys)-batch):][:batch]
			for i, k := range ks {
				digests[i] = hashx.Prehash(k)
			}
			t0 := time.Now()
			for _, d := range digests {
				id, _ := dl.LookupDigest(d)
				sink += int64(id)
			}
			t1 := time.Now()
			tr.add(span{Name: "placement." + name + ".lookup", Layer: "placement", Start: tr.at(t0), End: tr.at(t1)})
			perKey = append(perKey, float64(t1.Sub(t0))/batch)
		}
		layers["placement."+name+".lookup_ns"] = median(perKey)
	}

	anuTune, err := probeTune("anu", ids, func(id placement.ServerID) float64 { return paperSpeeds[id] }, tr)
	if err != nil {
		return err
	}
	layers["placement.anu.tune_us"] = median(anuTune.tune)

	members := make([]placement.ServerID, controlNodes)
	for i := range members {
		members[i] = placement.ServerID(i)
	}
	cb, err := probeTune("chord-bounded", members, controlSpeed, tr)
	if err != nil {
		return err
	}
	cb.store(layers)
	return nil
}

// codecTimes holds the tune, encode and decode timings of a strategy,
// in microseconds, and its snapshot size.
type codecTimes struct {
	tune, encode, decode []float64
	bytes                float64
}

func (c codecTimes) store(layers layerSet) {
	layers["placement.chord-bounded.tune_us"] = median(c.tune)
	layers["placement.chord-bounded.encode_us"] = median(c.encode)
	layers["placement.chord-bounded.decode_us"] = median(c.decode)
	layers["placement.chord-bounded.snapshot_bytes"] = c.bytes
}

// probeTune runs 100 closed-loop tune rounds on a fresh strategy,
// timing each round's tune, encode and decode.
func probeTune(name string, ids []placement.ServerID, speed func(placement.ServerID) float64, tr *tracer) (codecTimes, error) {
	s, err := placement.New(name, ids, placement.Options{HashSeed: 42})
	if err != nil {
		return codecTimes{}, fmt.Errorf("probe %s: %w", name, err)
	}
	var ct codecTimes
	for r := 0; r < 100; r++ {
		if err := replayRound(s, speed, tr, &ct); err != nil {
			return ct, err
		}
		s, err = placement.Decode(s.Encode(), placement.Options{})
		if err != nil {
			return ct, err
		}
	}
	return ct, nil
}

// replayRound times one tune of s under the model reports, then one
// encode and one decode of the result, appending to ct.
func replayRound(s placement.Strategy, speed func(placement.ServerID) float64, tr *tracer, ct *codecTimes) error {
	name := s.Name()
	reps := modelReports(s, speed)
	t0 := time.Now()
	if _, err := s.Tune(reps); err != nil {
		return fmt.Errorf("replay %s tune: %w", name, err)
	}
	t1 := time.Now()
	b := s.Encode()
	t2 := time.Now()
	if _, err := placement.Decode(b, placement.Options{}); err != nil {
		return fmt.Errorf("replay %s decode: %w", name, err)
	}
	t3 := time.Now()
	for _, sp := range []struct {
		op   string
		a, b time.Time
	}{{"tune", t0, t1}, {"encode", t1, t2}, {"decode", t2, t3}} {
		tr.add(span{Name: "placement." + name + "." + sp.op, Layer: "placement", Start: tr.at(sp.a), End: tr.at(sp.b)})
	}
	ct.tune = append(ct.tune, us(t1.Sub(t0)))
	ct.encode = append(ct.encode, us(t2.Sub(t1)))
	ct.decode = append(ct.decode, us(t3.Sub(t2)))
	ct.bytes = float64(len(b))
	return nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
