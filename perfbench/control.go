package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"anurand/internal/anu"
	"anurand/internal/cluster"
	"anurand/internal/delegate"
	"anurand/internal/journal"
	"anurand/internal/placement"
)

const (
	controlNodes    = 64
	controlRound    = 100 * time.Millisecond
	controlSetups   = 3
	controlStrategy = placement.StrategyChordBounded
	// controlQuorum makes the delegate wait for every node's report (or
	// the report grace), so on a lossless fabric every node installs
	// every round's map and a round that some node misses is a failure.
	controlQuorum = controlNodes
	// controlHashSeed fixes the ring: the placement quality of 64
	// chord-bounded nodes moves by a third from one hash seed to the
	// next, so the seed picks the lookup keys only.
	controlHashSeed = 42
	// streamPeriod is the follower lookup stream's open-loop cadence.
	streamPeriod = 500 * time.Microsecond
	// settle is how long rounds opened inside the window get to finish
	// installing before the books are read.
	settle = 5 * controlRound
)

// controlSpeed is node id's modeled speed, cycling 1..8.
func controlSpeed(id placement.ServerID) float64 { return 1 + float64(id%8) }

// workDir holds span files and the control workload's journals.
var workDir = filepath.Join(".bench_build", "perfbench")

// controlCluster is one running 64-node cluster with its books.
type controlCluster struct {
	mn       *cluster.MemNetwork
	rts      []*cluster.Runtime
	live     []atomic.Pointer[cluster.Runtime] // read by the observer
	journals []*journal.Journal
	dir      string
	book     *roundBook
	msgs     *msgBook // nil when untraced
	tr       *tracer
}

// startCluster brings up the cluster and returns once every node has
// installed a map, together with the time that took.
func startCluster(tr *tracer) (*controlCluster, time.Duration, error) {
	ids := make([]delegate.NodeID, controlNodes)
	for i := range ids {
		ids[i] = delegate.NodeID(i)
	}
	s, err := placement.New(controlStrategy, ids, placement.Options{HashSeed: controlHashSeed})
	if err != nil {
		return nil, 0, err
	}
	snapshot := s.Encode()
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(workDir, "control-")
	if err != nil {
		return nil, 0, err
	}
	mn, err := cluster.NewMemNetwork(cluster.ChaosConfig{}, 4096)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	c := &controlCluster{
		mn:   mn,
		live: make([]atomic.Pointer[cluster.Runtime], controlNodes),
		dir:  dir,
		book: newRoundBook(controlNodes, tr != nil),
		tr:   tr,
	}
	if tr != nil {
		c.msgs = newMsgBook(controlNodes)
	}
	start := time.Now()
	for _, id := range ids {
		j, err := journal.Open(filepath.Join(dir, fmt.Sprintf("node-%02d.wal", id)), journal.Options{})
		if err != nil {
			c.stop()
			return nil, 0, err
		}
		c.journals = append(c.journals, j)
		var tp cluster.Transport = mn.Endpoint(id)
		if c.msgs != nil {
			tp = &tapTransport{AsyncTransport: mn.Endpoint(id), book: c.msgs}
		}
		rt, err := cluster.Start(cluster.Config{
			ID:            id,
			Members:       ids,
			Snapshot:      snapshot,
			Strategy:      controlStrategy,
			Controller:    anu.DefaultControllerConfig(),
			RoundInterval: controlRound,
			Quorum:        controlQuorum,
			Observe:       c.observe,
			Journal:       &tapJournal{Journal: j, node: int(id), book: c.book},
		}, tp)
		if err != nil {
			c.stop()
			return nil, 0, fmt.Errorf("start node %d: %w", id, err)
		}
		c.rts = append(c.rts, rt)
		c.live[id].Store(rt)
	}
	select {
	case <-c.book.allInstalled:
	case <-time.After(30 * time.Second):
		c.stop()
		return nil, 0, fmt.Errorf("cluster did not install a first map within 30s")
	}
	return c, time.Since(start), nil
}

// observe is the closed-loop observer of the scale soak: a node's load
// follows its share and its latency grows with share over speed. It
// also notes when each round was first observed — the round's opening,
// seen from outside.
func (c *controlCluster) observe(s placement.Strategy, id delegate.NodeID) (uint64, float64) {
	t0 := time.Now()
	if rt := c.live[id].Load(); rt != nil {
		c.book.opened(rt.Round(), t0)
	}
	share := s.Shares()[id]
	if c.tr != nil {
		c.tr.add(span{Name: "loadgen.observe", Layer: "loadgen", Start: c.tr.at(t0), End: c.tr.at(time.Now())})
	}
	return uint64(1 + 1000*share), 0.002 + share/controlSpeed(id)
}

// stop halts every node, the fabric and the journals, and removes the
// journal directory.
func (c *controlCluster) stop() {
	var wg sync.WaitGroup
	for _, rt := range c.rts {
		wg.Add(1)
		go func(rt *cluster.Runtime) {
			defer wg.Done()
			rt.Stop()
		}(rt)
	}
	wg.Wait()
	c.mn.Close()
	for _, j := range c.journals {
		j.Close()
	}
	os.RemoveAll(c.dir)
}

// converged reports whether every node holds the same installed map.
func (c *controlCluster) converged() bool {
	e0, r0, f0 := c.rts[0].MapState()
	for _, rt := range c.rts[1:] {
		if e, r, f := rt.MapState(); e != e0 || r != r0 || f != f0 {
			return false
		}
	}
	return r0 > 0
}

// runControl runs the 64-node control plane with an open-loop follower
// lookup stream beside it.
func runControl(seed uint64, d time.Duration, tr *tracer) (*outcome, error) {
	o := newOutcome()
	names, stream := genKeys(seed)
	var (
		c      *controlCluster
		setups []float64
	)
	for i := 0; i < controlSetups; i++ {
		if c != nil {
			c.stop()
		}
		var took time.Duration
		var err error
		c, took, err = startCluster(tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer c.stop()
	o.e2e["setup_s"] = median(setups)

	net0 := c.mn.Stats()
	var msgs0 msgCounts
	if c.msgs != nil {
		msgs0 = c.msgs.counts()
	}
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	follower := c.rts[controlNodes-1]
	ss := streamLoop(follower, stream, start, deadline, tr)
	cpu := cpuTime() - cpu0
	net1 := c.mn.Stats()
	elapsed := time.Since(start)
	var msgs1 msgCounts
	if c.msgs != nil {
		msgs1 = c.msgs.counts()
	}
	time.Sleep(settle)

	rounds := c.book.window(start, deadline)
	o.attempted = ss.keys + int64(len(rounds))
	o.failed = ss.unresolved
	var roundMs, tuneUs []float64
	for _, r := range rounds {
		if r.installs < controlNodes {
			o.failed++
			continue
		}
		roundMs = append(roundMs, ms(r.last.Sub(r.open)))
		tuneUs = append(tuneUs, us(r.delegateAt.Sub(r.open)))
	}
	incomplete := len(rounds) - len(roundMs)
	o.check(len(rounds) >= int(d/controlRound)/2, "only %d rounds opened in %v", len(rounds), d)
	o.check(incomplete == 0, "%d of %d rounds were not installed by every node", incomplete, len(rounds))
	o.check(ss.unresolved == 0, "%d follower lookups did not resolve to a configured node", ss.unresolved)
	for _, v := range c.book.violationList() {
		o.check(false, "coherence: %s", v)
	}
	converged := false
	for wait := time.Now().Add(2 * time.Second); !converged && time.Now().Before(wait); time.Sleep(5 * time.Millisecond) {
		converged = c.converged()
	}
	o.check(converged, "nodes do not hold the same map at the end of the run")
	n := checkRuntimeLookups(c.rts[0], follower, names[:4096])
	o.check(n == 0, "after the run, %d of 4096 keys resolve differently on the delegate and a follower", n)

	o.e2e["mem_peak_mb"] = peakRSSMiB()
	o.e2e["lookup_mops"] = float64(ss.keys) / ss.elapsed.Seconds() / 1e6
	o.e2e["lookup_p50_ns"] = quantile(ss.perKey, 0.50)
	o.e2e["lookup_p99_ns"] = quantile(ss.perKey, 0.99)
	o.e2e["tune_p50_us"] = median(tuneUs)
	o.e2e["round_p50_ms"] = quantile(roundMs, 0.50)
	o.e2e["round_p95_ms"] = quantile(roundMs, 0.95)
	o.e2e["cpu_ms_per_round"] = ms(cpu) / float64(len(rounds))
	o.e2e["events_mps"] = float64(net1.Delivered-net0.Delivered) / elapsed.Seconds() / 1e6
	o.msgsPerRound = float64(net1.Delivered-net0.Delivered) / float64(len(rounds))
	q := modelQuality(c.rts[0].Placement().Shares(), controlSpeed)
	o.e2e["anu_spread_x"], o.e2e["anu_ratio_x"], o.e2e["anu_hot_ratio_x"] = q.spread, q.ratio, q.hotRatio

	if tr != nil {
		if err := c.traceLayers(o, rounds, msgs1.minus(msgs0), ss, names); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// traceLayers fills the control workload's per-layer metrics and
// emits each round's spans.
func (c *controlCluster) traceLayers(o *outcome, rounds []roundInfo, msgs msgCounts, ss streamStats, names []string) error {
	if err := probeLayers(names, c.tr, o.layers); err != nil {
		return err
	}
	var quorum, tuneWait, fanout, skew []float64
	var followerInstalls int
	var ct codecTimes
	for _, r := range rounds {
		m := c.msgs.round(r.round)
		followerInstalls += r.installs - 1
		if r.installs < controlNodes || m.quorumAt.IsZero() || m.firstMap.IsZero() {
			continue
		}
		quorum = append(quorum, ms(m.quorumAt.Sub(r.open)))
		tuneWait = append(tuneWait, ms(m.firstMap.Sub(m.quorumAt)))
		fanout = append(fanout, ms(m.lastMap.Sub(m.firstMap)))
		skew = append(skew, ms(r.last.Sub(r.firstFollower)))
		id := c.tr.add(span{Name: "control.round", Layer: "delegate", Epoch: r.epoch, Round: r.round, Start: c.tr.at(r.open), End: c.tr.at(r.last)})
		for _, ph := range []struct {
			name, layer string
			a, b        time.Time
		}{
			{"control.quorum_wait", "delegate", r.open, m.quorumAt},
			{"control.tune_wait", "delegate", m.quorumAt, m.firstMap},
			{"control.fanout", "cluster", m.firstMap, m.lastMap},
			{"control.install_skew", "cluster", r.firstFollower, r.last},
		} {
			c.tr.add(span{Name: ph.name, Layer: ph.layer, Parent: id, Epoch: r.epoch, Round: r.round, Start: c.tr.at(ph.a), End: c.tr.at(ph.b)})
		}
		for _, a := range r.appends {
			c.tr.add(span{Name: "journal.append", Layer: "journal", Parent: id, Epoch: r.epoch, Round: r.round, Start: c.tr.at(a[0]), End: c.tr.at(a[1])})
		}
		// Replay the chord-bounded layer on this round's snapshot.
		s, err := placement.Decode(r.snapshot, placement.Options{})
		if err != nil {
			return fmt.Errorf("replay round %d: %w", r.round, err)
		}
		if err := replayRound(s, controlSpeed, c.tr, &ct); err != nil {
			return err
		}
	}
	n := float64(len(rounds))
	o.layers["control.quorum_wait_ms"] = median(quorum)
	o.layers["control.tune_wait_ms"] = median(tuneWait)
	o.layers["control.fanout_ms"] = median(fanout)
	o.layers["control.install_skew_ms"] = median(skew)
	o.layers["cluster.installs_per_round"] = float64(followerInstalls) / n / (controlNodes - 1)
	o.layers["cluster.msgs_per_round.heartbeat"] = float64(msgs.heartbeat) / n
	o.layers["cluster.msgs_per_round.report"] = float64(msgs.report) / n
	o.layers["cluster.msgs_per_round.map"] = float64(msgs.maps) / n
	o.layers["cluster.bytes_per_round"] = float64(msgs.bytes) / n
	var drops uint64
	for _, rt := range c.rts {
		drops += rt.Stats().SendDrops
	}
	o.layers["cluster.send_drops"] = float64(drops)
	o.layers["memnet.overflows"] = float64(c.mn.Stats().Overflowed)
	appendUs := c.book.appendTimes()
	o.layers["journal.append_p50_us"] = quantile(appendUs, 0.50)
	o.layers["journal.append_p99_us"] = quantile(appendUs, 0.99)
	o.layers["loadgen.late_p99_us"] = quantile(ss.late, 0.99)
	if len(ct.tune) > 0 {
		ct.store(o.layers)
	}
	return nil
}

// checkRuntimeLookups resolves keys on two quiescent-map nodes and
// returns how many disagree or fall outside the membership.
func checkRuntimeLookups(a, b *cluster.Runtime, keys []string) int {
	oa := make([]anu.ServerID, len(keys))
	ob := make([]anu.ServerID, len(keys))
	a.LookupBatch(keys, oa)
	b.LookupBatch(keys, ob)
	bad := countForeign(oa, controlNodes)
	for i := range oa {
		if oa[i] != ob[i] {
			bad++
		}
	}
	return bad
}

type streamStats struct {
	keys, unresolved int64
	perKey, late     []float64
	elapsed          time.Duration // from the start to the end of the last batch
}

// streamLoop is the open-loop follower lookup stream: one 256-key
// LookupBatch every streamPeriod, timed per batch.
func streamLoop(rt *cluster.Runtime, stream []string, start, deadline time.Time, tr *tracer) streamStats {
	n := int(deadline.Sub(start) / streamPeriod)
	st := streamStats{perKey: make([]float64, 0, n), late: make([]float64, 0, n)}
	owners := make([]anu.ServerID, lookupBatch)
	pos := 0
	for k := 1; ; k++ {
		due := start.Add(time.Duration(k) * streamPeriod)
		if due.After(deadline) {
			return st
		}
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		keys := stream[pos : pos+lookupBatch]
		pos += lookupBatch
		if pos+lookupBatch > len(stream) {
			pos = 0
		}
		t0 := time.Now()
		rt.LookupBatch(keys, owners)
		t1 := time.Now()
		st.keys += lookupBatch
		st.elapsed = t1.Sub(start)
		st.unresolved += int64(countForeign(owners, controlNodes))
		st.perKey = append(st.perKey, float64(t1.Sub(t0))/lookupBatch)
		st.late = append(st.late, us(t0.Sub(due)))
		if tr != nil && k%16 == 0 {
			tr.add(span{Name: "cluster.lookup_batch", Layer: "cluster", Start: tr.at(t0), End: tr.at(t1)})
		}
	}
}
