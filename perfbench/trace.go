package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/exp"
	"repro/internal/memctrl"
)

// span is one traced interval. ID names the cell, attack or request the
// span covers (unique within the run); Parent is the enclosing span's ID.
// Times are nanoseconds since the process started measuring.
type span struct {
	ID      string             `json:"id"`
	Name    string             `json:"name"`
	Parent  string             `json:"parent,omitempty"`
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory; they are written once, when the run ends.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, t0: time.Now()} }

// add records a finished span; safe for concurrent use.
func (t *tracer) add(id, name, parent string, start, end time.Time, attrs map[string]float64) {
	if t == nil {
		return
	}
	s := span{ID: id, Name: name, Parent: parent,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(), Attrs: attrs}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines under dir and returns the file path.
func (t *tracer) write(dir string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", t.workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}

// layerTimes accumulates the time one simulation spent inside the wrapped
// layer boundaries. A simulation runs on one goroutine, so the sub-channel
// mitigators and per-core traces of one run share one value unsynchronized;
// concurrent runs each get their own.
type layerTimes struct {
	replayNS, replayCalls               int64
	activateNS, activateCalls           int64
	refreshNS, mitigationsNS, sampledNS int64
	ops                                 int64
}

func (l *layerTimes) add(o *layerTimes) {
	l.replayNS += o.replayNS
	l.replayCalls += o.replayCalls
	l.activateNS += o.activateNS
	l.activateCalls += o.activateCalls
	l.refreshNS += o.refreshNS
	l.mitigationsNS += o.mitigationsNS
	l.sampledNS += o.sampledNS
	l.ops += o.ops
}

func (l *layerTimes) trackerNS() int64 {
	return l.activateNS + l.refreshNS + l.mitigationsNS + l.sampledNS
}

// attrs renders the per-run layer times as span attributes.
func (l *layerTimes) attrs() map[string]float64 {
	return map[string]float64{
		"replay_ns": float64(l.replayNS), "replay_calls": float64(l.replayCalls),
		"tracker_ns": float64(l.trackerNS()), "tracker_activate_calls": float64(l.activateCalls),
		"tracker_ops": float64(l.ops),
	}
}

// timedTrace is a cpu.Trace that times every Next of the trace it wraps.
type timedTrace struct {
	t cpu.Trace
	l *layerTimes
}

func (t timedTrace) Next() (gap int, lineAddr uint64, isWrite bool, ok bool) {
	s := time.Now()
	gap, lineAddr, isWrite, ok = t.t.Next()
	t.l.replayNS += int64(time.Since(s))
	t.l.replayCalls++
	return
}

// timedMitigator is a memctrl.Mitigator that times every hook of the
// mitigator it wraps and counts the operations it requests.
type timedMitigator struct {
	m memctrl.Mitigator
	l *layerTimes
}

func (t timedMitigator) Name() string { return t.m.Name() }

func (t timedMitigator) OnActivate(now memctrl.Tick, bank int, row uint32) memctrl.Decision {
	s := time.Now()
	d := t.m.OnActivate(now, bank, row)
	t.l.activateNS += int64(time.Since(s))
	t.l.activateCalls++
	t.l.ops += int64(len(d.PreOps) + len(d.PostOps))
	return d
}

func (t timedMitigator) OnSampled(now memctrl.Tick, bank int, row uint32) {
	s := time.Now()
	t.m.OnSampled(now, bank, row)
	t.l.sampledNS += int64(time.Since(s))
}

func (t timedMitigator) OnMitigations(now memctrl.Tick, mits []dram.Mitigation) {
	s := time.Now()
	t.m.OnMitigations(now, mits)
	t.l.mitigationsNS += int64(time.Since(s))
}

func (t timedMitigator) OnRefresh(now memctrl.Tick, refIndex uint64) []memctrl.Op {
	s := time.Now()
	ops := t.m.OnRefresh(now, refIndex)
	t.l.refreshNS += int64(time.Since(s))
	return ops
}

func (t timedMitigator) StorageBits() int64 { return t.m.StorageBits() }

// timedBuild wraps a scheme Build function so every mitigator it builds reports
// into the layerTimes that times(env) returns for the run.
func timedBuild(build func(exp.Env, int) (memctrl.Mitigator, error), times func(exp.Env) *layerTimes) func(exp.Env, int) (memctrl.Mitigator, error) {
	return func(env exp.Env, sub int) (memctrl.Mitigator, error) {
		m, err := build(env, sub)
		if err != nil {
			return nil, err
		}
		return timedMitigator{m: m, l: times(env)}, nil
	}
}

// layerSums aggregates layer times and cell busy time across a traced phase.
type layerSums struct {
	times    layerTimes
	cells    int64
	busy     time.Duration
	byFamily map[string]time.Duration
}

func (s *layerSums) addRun(family string, busy time.Duration, l *layerTimes) {
	if s.byFamily == nil {
		s.byFamily = make(map[string]time.Duration)
	}
	s.cells++
	s.busy += busy
	s.byFamily[family] += busy
	s.times.add(l)
}

// reportLayers sets the exp, tracker, replay and system per-layer metrics. wall
// is the traced phase's summed makespan and events its simulator events.
func (b *bench) reportLayers(s *layerSums, wall time.Duration, events uint64) {
	b.set("exp.cells", float64(s.cells))
	b.set("exp.cell_busy_s", s.busy.Seconds())
	for fam, d := range s.byFamily {
		b.set("exp.busy_s."+fam, d.Seconds())
	}
	b.set("exp.pool_idle_s", (wall - s.busy).Seconds())
	t := s.times
	b.set("runcache.replay_s", time.Duration(t.replayNS).Seconds())
	b.set("runcache.replay_calls", float64(t.replayCalls))
	b.set("tracker.activate_s", time.Duration(t.activateNS).Seconds())
	b.set("tracker.activate_calls", float64(t.activateCalls))
	b.set("tracker.refresh_s", time.Duration(t.refreshNS).Seconds())
	b.set("tracker.mitigations_s", time.Duration(t.mitigationsNS).Seconds())
	b.set("tracker.sampled_s", time.Duration(t.sampledNS).Seconds())
	b.set("tracker.ops", float64(t.ops))
	self := s.busy - time.Duration(t.replayNS+t.trackerNS())
	b.set("system.self_s", self.Seconds())
	b.set("system.events", float64(events))
	if events > 0 {
		b.set("system.ns_per_event", float64(self.Nanoseconds())/float64(events))
	}
}
