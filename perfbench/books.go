package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"anurand/internal/cluster"
	"anurand/internal/delegate"
	"anurand/internal/journal"
)

// controlDelegate is the control cluster's delegate: the lowest id, by
// the paper's election rule, on a fabric that loses nothing.
const controlDelegate = 0

// fingerprint is the FNV-1a digest Runtime.MapState reports, computed
// over the encoded map a node journals at install.
func fingerprint(b []byte) uint64 {
	var h uint64 = 1469598103934665603
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// roundInfo is what the books know about one round.
type roundInfo struct {
	epoch, round        uint64
	open                time.Time // first observer call of the round
	installs            int
	delegateAt          time.Time // the delegate's install
	firstFollower, last time.Time
	appends             [][2]time.Time // journal append spans, traced runs only
	snapshot            []byte         // the delegate's map, traced runs only
}

// roundBook records round openings and installs, and holds the
// coherence invariant: equal (epoch, round) means equal fingerprint,
// and no node's installs go backwards.
type roundBook struct {
	mu            sync.Mutex
	n             int
	traced        bool
	rounds        map[uint64]*roundInfo
	fps           map[[2]uint64]uint64
	last          [][2]uint64
	installedOnce []bool
	nOnce         int
	allInstalled  chan struct{} // closed once every node has installed
	violations    []string
	appendUs      []float64
}

func newRoundBook(n int, traced bool) *roundBook {
	return &roundBook{
		n:             n,
		traced:        traced,
		rounds:        make(map[uint64]*roundInfo),
		fps:           make(map[[2]uint64]uint64),
		last:          make([][2]uint64, n),
		installedOnce: make([]bool, n),
		allInstalled:  make(chan struct{}),
	}
}

func (b *roundBook) get(round uint64) *roundInfo {
	ri, ok := b.rounds[round]
	if !ok {
		ri = &roundInfo{round: round}
		b.rounds[round] = ri
	}
	return ri
}

// opened notes that a node observed round at t.
func (b *roundBook) opened(round uint64, t time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ri := b.get(round); ri.open.IsZero() || t.Before(ri.open) {
		ri.open = t
	}
}

// install notes node's install of rec at t and checks coherence.
func (b *roundBook) install(node int, rec journal.Record, t time.Time) {
	fp := fingerprint(rec.Map)
	b.mu.Lock()
	defer b.mu.Unlock()
	key := [2]uint64{rec.Epoch, rec.Round}
	if prev, ok := b.fps[key]; !ok {
		b.fps[key] = fp
	} else if prev != fp {
		b.violate("node %d: (epoch %d, round %d) fingerprint %x conflicts with %x", node, rec.Epoch, rec.Round, fp, prev)
	}
	if last := b.last[node]; key[0] < last[0] || (key[0] == last[0] && key[1] < last[1]) {
		b.violate("node %d: install went backwards: (%d,%d) after (%d,%d)", node, key[0], key[1], last[0], last[1])
	}
	b.last[node] = key
	ri := b.get(rec.Round)
	ri.epoch = rec.Epoch
	ri.installs++
	if node == controlDelegate {
		ri.delegateAt = t
		if b.traced {
			ri.snapshot = append([]byte(nil), rec.Map...)
		}
	} else if ri.firstFollower.IsZero() {
		ri.firstFollower = t
	}
	if t.After(ri.last) {
		ri.last = t
	}
	if !b.installedOnce[node] {
		b.installedOnce[node] = true
		if b.nOnce++; b.nOnce == b.n {
			close(b.allInstalled)
		}
	}
}

// appended notes one traced journal append.
func (b *roundBook) appended(round uint64, t0, t1 time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ri := b.get(round)
	ri.appends = append(ri.appends, [2]time.Time{t0, t1})
	b.appendUs = append(b.appendUs, us(t1.Sub(t0)))
}

func (b *roundBook) violate(format string, args ...any) {
	if len(b.violations) < 10 {
		b.violations = append(b.violations, fmt.Sprintf(format, args...))
	}
}

func (b *roundBook) violationList() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.violations...)
}

func (b *roundBook) appendTimes() []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]float64(nil), b.appendUs...)
}

// window returns copies of the rounds opened in [from, to), in order.
func (b *roundBook) window(from, to time.Time) []roundInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []roundInfo
	for _, ri := range b.rounds {
		if !ri.open.IsZero() && !ri.open.Before(from) && ri.open.Before(to) {
			out = append(out, *ri)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].round < out[j].round })
	return out
}

// tapJournal is the cluster.Journal every control node gets: it notes
// each install before the durable append, and in a traced run times
// the append. The embedded journal supplies Last*, and Stats.
type tapJournal struct {
	*journal.Journal
	node int
	book *roundBook
}

func (j *tapJournal) Append(rec journal.Record) error {
	t0 := time.Now()
	j.book.install(j.node, rec, t0)
	err := j.Journal.Append(rec)
	if j.book.traced {
		j.book.appended(rec.Round, t0, time.Now())
	}
	return err
}

// msgCounts counts sent messages by kind, plus payload bytes.
type msgCounts struct{ heartbeat, report, maps, bytes uint64 }

func (a msgCounts) minus(b msgCounts) msgCounts {
	return msgCounts{a.heartbeat - b.heartbeat, a.report - b.report, a.maps - b.maps, a.bytes - b.bytes}
}

// msgRound holds one round's send times as the transport tap saw them.
type msgRound struct {
	reports           int
	quorumAt          time.Time // the Quorum-th report, counting the delegate's own sample
	firstMap, lastMap time.Time
}

// msgBook collects what the transport taps of a traced run see.
type msgBook struct {
	counters []nodeCounters
	mu       sync.Mutex
	rounds   map[uint64]*msgRound
}

type nodeCounters struct {
	heartbeat, report, maps, bytes atomic.Uint64
	_                              [32]byte // keep nodes off each other's cache lines
}

func newMsgBook(n int) *msgBook {
	return &msgBook{counters: make([]nodeCounters, n), rounds: make(map[uint64]*msgRound)}
}

func (m *msgBook) note(msg delegate.Message) {
	c := &m.counters[msg.From]
	c.bytes.Add(uint64(len(msg.Payload)))
	switch msg.Kind {
	case cluster.MsgHeartbeat:
		c.heartbeat.Add(1)
	case delegate.MsgReport:
		c.report.Add(1)
		now := time.Now()
		m.mu.Lock()
		r := m.get(msg.Round)
		if r.reports++; r.reports == controlQuorum-1 {
			r.quorumAt = now
		}
		m.mu.Unlock()
	case delegate.MsgMap:
		c.maps.Add(1)
		now := time.Now()
		m.mu.Lock()
		r := m.get(msg.Round)
		if r.firstMap.IsZero() {
			r.firstMap = now
		}
		r.lastMap = now
		m.mu.Unlock()
	}
}

func (m *msgBook) get(round uint64) *msgRound {
	r, ok := m.rounds[round]
	if !ok {
		r = &msgRound{}
		m.rounds[round] = r
	}
	return r
}

func (m *msgBook) round(round uint64) msgRound {
	m.mu.Lock()
	defer m.mu.Unlock()
	return *m.get(round)
}

func (m *msgBook) counts() msgCounts {
	var s msgCounts
	for i := range m.counters {
		c := &m.counters[i]
		s.heartbeat += c.heartbeat.Load()
		s.report += c.report.Load()
		s.maps += c.maps.Load()
		s.bytes += c.bytes.Load()
	}
	return s
}

// tapTransport counts and times a node's outbound messages for a
// traced run. It keeps the asynchronous send lane, so the runtime's
// fan-out is the same as without it.
type tapTransport struct {
	cluster.AsyncTransport
	book *msgBook
}

func (t *tapTransport) Send(msg delegate.Message) error {
	t.book.note(msg)
	return t.AsyncTransport.Send(msg)
}

func (t *tapTransport) SendAsync(msg delegate.Message) bool {
	t.book.note(msg)
	return t.AsyncTransport.SendAsync(msg)
}
