package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"anurand"
	"anurand/internal/clustersim"
	"anurand/internal/delegate"
	"anurand/internal/journal"
	"anurand/internal/placement"
)

func TestRoundBookAcceptsCoherentInstalls(t *testing.T) {
	b := newRoundBook(2, false)
	t0 := time.Now()
	b.opened(1, t0)
	for node := 0; node < 2; node++ {
		b.install(node, journal.Record{Epoch: 1, Round: 1, Map: []byte("map-1")}, t0.Add(time.Millisecond))
		b.install(node, journal.Record{Epoch: 1, Round: 2, Map: []byte("map-2")}, t0.Add(2*time.Millisecond))
	}
	if v := b.violationList(); len(v) != 0 {
		t.Fatalf("coherent installs flagged: %v", v)
	}
	select {
	case <-b.allInstalled:
	default:
		t.Fatal("allInstalled not closed after every node installed")
	}
	rounds := b.window(t0, t0.Add(time.Second))
	if len(rounds) != 1 || rounds[0].installs != 2 || rounds[0].delegateAt.IsZero() {
		t.Fatalf("window = %+v, want round 1 installed by both nodes", rounds)
	}
}

func TestRoundBookTripsOnConflictingFingerprint(t *testing.T) {
	b := newRoundBook(2, false)
	now := time.Now()
	b.install(0, journal.Record{Epoch: 1, Round: 5, Map: []byte("map-a")}, now)
	b.install(1, journal.Record{Epoch: 1, Round: 5, Map: []byte("map-b")}, now)
	v := b.violationList()
	if len(v) != 1 || !strings.Contains(v[0], "conflicts") {
		t.Fatalf("violations = %v, want one fingerprint conflict", v)
	}
}

func TestRoundBookTripsOnBackwardsInstall(t *testing.T) {
	b := newRoundBook(1, false)
	now := time.Now()
	b.install(0, journal.Record{Epoch: 2, Round: 1, Map: []byte("x")}, now)
	b.install(0, journal.Record{Epoch: 1, Round: 9, Map: []byte("y")}, now)
	v := b.violationList()
	if len(v) != 1 || !strings.Contains(v[0], "backwards") {
		t.Fatalf("violations = %v, want one backwards install", v)
	}
}

type nopTransport struct{}

func (nopTransport) Send(delegate.Message)                      {}
func (nopTransport) Deliver(delegate.NodeID) []delegate.Message { return nil }

func TestFingerprintMatchesNodeFingerprint(t *testing.T) {
	ids := []delegate.NodeID{0, 1, 2, 3}
	s, err := placement.New(controlStrategy, ids, placement.Options{HashSeed: controlHashSeed})
	if err != nil {
		t.Fatal(err)
	}
	n, err := delegate.NewNodeWithOptions(0, s.Encode(), placement.Options{}, nopTransport{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(s.Encode()), n.Fingerprint(); got != want {
		t.Fatalf("fingerprint = %x, node reports %x", got, want)
	}
}

func TestWrongOwnerIsCounted(t *testing.T) {
	owners := []anurand.ServerID{0, 4, 2, 5, anurand.NoOwner}
	if n := countForeign(owners, 5); n != 2 {
		t.Fatalf("countForeign = %d, want 2 (id 5 and NoOwner)", n)
	}
}

func TestBatchAgainstLookupOnHealthyBalancer(t *testing.T) {
	b, err := anurand.NewWithOptions([]anurand.ServerID{0, 1, 2, 3, 4}, anurand.Options{HashSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	names, _ := genKeys(1)
	if n := checkBatchAgainstLookup(b, names[:512], 5); n != 0 {
		t.Fatalf("%d disagreements on a quiescent Balancer", n)
	}
	// A membership that excludes a real owner must trip the check.
	if n := checkBatchAgainstLookup(b, names[:512], 4); n == 0 {
		t.Fatal("owners outside a 4-server membership went unnoticed")
	}
}

func TestChangedDigestFailsComparison(t *testing.T) {
	plain := &outcome{digests: map[string]string{"seed1/synthetic/anu": "aaaa", "seed1/hot/vp": "bbbb"}}
	same := &outcome{digests: map[string]string{"seed1/synthetic/anu": "aaaa", "seed1/hot/vp": "bbbb"}}
	for _, c := range same.compareUntraced(plain) {
		if !c.ok {
			t.Fatalf("identical digests failed: %s", c.what)
		}
	}
	changed := &outcome{digests: map[string]string{"seed1/synthetic/anu": "aaaa", "seed1/hot/vp": "cccc"}}
	failed := 0
	for _, c := range changed.compareUntraced(plain) {
		if !c.ok {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("%d comparisons failed, want 1 for the changed digest", failed)
	}
}

func TestMessageCountDriftFailsComparison(t *testing.T) {
	plain := &outcome{msgsPerRound: 32400}
	for _, tc := range []struct {
		traced float64
		ok     bool
	}{{32500, true}, {36000, false}} {
		got := (&outcome{msgsPerRound: tc.traced}).compareUntraced(plain)
		if len(got) != 1 || got[0].ok != tc.ok {
			t.Fatalf("traced %v: comparisons %+v, want ok=%v", tc.traced, got, tc.ok)
		}
	}
}

func TestIncompleteCellFails(t *testing.T) {
	c := &cellResult{cell: cell{1, "synthetic", "anu"}, requests: 100, res: &clustersim.Result{Completed: 100}}
	if err := checkCell(c); err != nil {
		t.Fatalf("complete cell failed: %v", err)
	}
	c.res.Completed = 99
	if err := checkCell(c); err == nil {
		t.Fatal("cell with a missing request passed")
	}
	c.res.Completed, c.res.Dropped = 100, 1
	if err := checkCell(c); err == nil {
		t.Fatal("cell with a dropped request passed")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "delegate", Start: 0, End: 10e6},
		{ID: 2, Parent: 1, Layer: "journal", Start: 1e6, End: 4e6},
		{ID: 3, Parent: 1, Layer: "journal", Start: 3e6, End: 6e6},
		{ID: 4, Parent: 1, Layer: "cluster", Start: 9e6, End: 12e6},
	}
	got := selfTimes(spans)
	// The children cover 1-6 ms and 9-10 ms of the parent's 10 ms.
	if got["self.delegate_ms"] != 4 || got["self.journal_ms"] != 6 || got["self.cluster_ms"] != 3 {
		t.Fatalf("self times = %v", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram()
	for i := 1; i <= 100; i++ {
		h.add(float64(i))
	}
	if p50 := h.quantile(0.5); math.Abs(p50-50) > 0.1 {
		t.Fatalf("p50 = %v, want 50", p50)
	}
	if p99 := h.quantile(0.99); math.Abs(p99-99) > 0.1 {
		t.Fatalf("p99 = %v, want 99", p99)
	}
}

func TestModelQualityOfPrescientShares(t *testing.T) {
	speed := func(id placement.ServerID) float64 { return paperSpeeds[id] }
	shares := map[placement.ServerID]float64{}
	for i, sp := range paperSpeeds {
		shares[placement.ServerID(i)] = sp / 25
	}
	q := modelQuality(shares, speed)
	for name, v := range map[string]float64{"spread": q.spread, "ratio": q.ratio, "hot": q.hotRatio} {
		if math.Abs(v-1) > 1e-9 {
			t.Errorf("%s = %v, want 1 for shares proportional to speed", name, v)
		}
	}
	uniform := map[placement.ServerID]float64{0: 0.2, 1: 0.2, 2: 0.2, 3: 0.2, 4: 0.2}
	if q := modelQuality(uniform, speed); q.ratio <= 1 || q.spread <= 1 {
		t.Errorf("uniform shares scored %+v, want worse than prescient", q)
	}
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	o := newOutcome()
	for _, m := range endToEndMetrics {
		o.e2e[m.name] = 1
	}
	if res := o.endToEnd(); !res.Correct || len(res.Metrics) != len(endToEndMetrics) {
		t.Fatalf("endToEnd = %+v", res)
	}
	delete(o.e2e, "setup_s")
	if res := o.endToEnd(); res.Correct {
		t.Fatal("a missing metric did not fail the run")
	}
	if got := len(o.perLayer().Metrics); got != len(perLayerMetrics()) {
		t.Fatalf("perLayer printed %d metrics, want %d", got, len(perLayerMetrics()))
	}
}
