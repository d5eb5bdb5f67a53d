// Package runcache provides process-wide, concurrency-safe memoization for
// the two dominant costs of regenerating the paper's figures: synthetic
// trace generation and unprotected-baseline simulations. Both are pure
// functions of their run inputs (workload, cores, accesses, seed, machine
// configuration), so every figure in a `-run all` invocation can share one
// copy instead of re-paying the cost per (experiment × T_RH) combination.
//
// The cache is content-addressed: keys are comparable structs listing every
// input that affects the result, and nothing else. Lookups are
// singleflight-deduplicated — when several goroutines ask for the same key
// concurrently (e.g. a figure's T_RH sweep running grid jobs in parallel),
// exactly one computes the value and the rest block on it, so cache-hit
// counters double as an exactly-once proof for trace generation and
// baseline simulation.
//
// A baseline that simulates also leaves a memory-only CallLog of every
// mitigator call it made, so a mitigated run on the same machine can replay
// those calls through its trackers and skip its simulation when none acts.
package runcache

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/runcache/diskcache"
)

// TraceKey identifies one deterministic trace-set generation: the per-core
// access streams of a rate-mode workload or an Appendix-D mix.
type TraceKey struct {
	// Kind is "rate" or "mix".
	Kind string
	// Workload is the suite workload name (rate mode).
	Workload string
	// MixSeed selects the Appendix-D mix (mix mode).
	MixSeed  uint64
	Cores    int
	Accesses uint64
	Seed     uint64
}

// RunKey identifies one deterministic unprotected-baseline simulation. It
// lists every RunConfig field that influences an unprotected run's result;
// T_RH and WindowScale are deliberately absent — they only parameterise
// mitigators, so the baseline is shared across a figure's threshold sweep.
type RunKey struct {
	Trace TraceKey
	// Machine-configuration inputs.
	PRAC         bool
	SmallLLC     bool
	Audit        bool
	Characterize bool
	MOPCap       int
	MaxTime      int64
}

// MitKey identifies one deterministic mitigated simulation: the unprotected
// machine identity plus everything that parameterises the mitigator. It is
// only valid for schemes whose behavior is a pure function of (name, Env) —
// the experiment layer gates on that (Scheme.Pure) before building one.
type MitKey struct {
	Run RunKey
	// Scheme is the scheme's name; built-in constructors bake every
	// constructor parameter into it, making the name a content identity.
	Scheme string
	TRH    int
	// WindowScaleBits is math.Float64bits of the run's WindowScale: exact,
	// comparable, and hashable (the scaled counter thresholds and reset
	// period derive from it).
	WindowScaleBits uint64
	// Seed feeds the per-sub-channel mitigator RNGs. It is listed even
	// though rate-mode trace keys carry it too, because mix-mode traces are
	// seed-independent while their mitigators are not.
	Seed uint64
}

// Access is one recorded trace event: gap non-memory instructions followed
// by a line access. The layout is kept compact (16 bytes) because full-mode
// trace sets run to hundreds of millions of accesses.
type Access struct {
	Line  uint64
	Gap   int32
	Write bool
}

// TraceSet is one recorded trace per core.
type TraceSet [][]Access

// accesses reports the total recorded events (the eviction cost unit).
func (ts TraceSet) accesses() int64 {
	var n int64
	for _, t := range ts {
		n += int64(len(t))
	}
	return n
}

// Source is the trace interface drained by Record (structurally identical
// to cpu.Trace, redeclared to keep this package dependency-free).
type Source interface {
	Next() (gap int, lineAddr uint64, isWrite bool, ok bool)
}

// Record drains one generator into a replayable access slice. A source that
// reports how many accesses it has left (workload generators and Replayers
// do) is recorded into a slice of exactly that capacity, so a held trace set
// carries no growth slack.
func Record(src Source) []Access {
	n := uint64(4096)
	if r, ok := src.(interface{ Remaining() uint64 }); ok {
		n = r.Remaining()
	}
	out := make([]Access, 0, n)
	for {
		gap, line, w, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, Access{Line: line, Gap: int32(gap), Write: w})
	}
}

// RecordAll drains one generator per core.
func RecordAll(srcs []Source) TraceSet {
	ts := make(TraceSet, len(srcs))
	for i, s := range srcs {
		ts[i] = Record(s)
	}
	return ts
}

// Replayer re-emits a recorded access stream; it implements cpu.Trace.
// Replayers are cheap: many simulations share one immutable backing slice.
type Replayer struct {
	a []Access
	i int
}

// NewReplayer wraps one recorded per-core stream.
func NewReplayer(a []Access) *Replayer { return &Replayer{a: a} }

// Next implements the trace interface.
func (r *Replayer) Next() (gap int, lineAddr uint64, isWrite bool, ok bool) {
	if r.i >= len(r.a) {
		return 0, 0, false, false
	}
	a := r.a[r.i]
	r.i++
	return int(a.Gap), a.Line, a.Write, true
}

// Remaining reports accesses left (mirrors workload.Gen for tests).
func (r *Replayer) Remaining() uint64 { return uint64(len(r.a) - r.i) }

// Stats is a point-in-time snapshot of cache effectiveness. For a cache
// whose entries were never evicted, Misses == Entries proves each key was
// computed exactly once.
type Stats struct {
	TraceHits, TraceMisses, TraceEntries int64
	TraceEvictions                       int64
	TraceAccessesHeld                    int64
	RunHits, RunMisses, RunEntries       int64
	MitHits, MitMisses, MitEntries       int64

	// DiskTraceHits/DiskRunHits/DiskMitHits count in-memory misses that were
	// served by the persistent tier instead of recomputed; subtracting them
	// from the corresponding Misses gives the true computation count.
	DiskTraceHits, DiskRunHits, DiskMitHits int64
	// Disk aggregates the persistent store's own counters (zero value when
	// no disk tier is attached).
	Disk diskcache.Stats

	// Replays counts mitigated runs answered by replaying their baseline's
	// call log: no tracker acted, so the baseline's result was returned.
	// ReplayFallbacks counts replays cut short by a tracker that acted, after
	// which the run simulated in full. LogBytesHeld is the encoded size of
	// the call logs held in memory.
	Replays, ReplayFallbacks int64
	LogBytesHeld             int64
}

// entry is one singleflight slot: ready closes when val/err are final.
type entry struct {
	ready   chan struct{}
	val     any
	err     error
	cost    int64
	lastUse int64
}

// table is a keyed singleflight memo with cost-bounded LRU eviction.
type table struct {
	mu      sync.Mutex
	entries map[any]*entry
	budget  int64 // max total cost; 0 = unbounded
	held    int64
	clock   int64

	hits, misses, evictions atomic.Int64
}

func newTable(budget int64) *table {
	return &table{entries: make(map[any]*entry), budget: budget}
}

// do returns the memoized value for key, computing it with fn on the first
// call. cost is charged against the table budget once fn succeeds; failed
// computations are not retained, so a later retry recomputes. If fn panics,
// the panic propagates to the filling goroutine after waiters have been
// released with an error and the entry dropped — a poisoned fill can never
// wedge concurrent waiters on the ready latch.
func (t *table) do(key any, fn func() (any, int64, error)) (any, error) {
	t.mu.Lock()
	t.clock++
	if e, ok := t.entries[key]; ok {
		e.lastUse = t.clock
		t.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, e.err
		}
		t.hits.Add(1)
		return e.val, nil
	}
	e := &entry{ready: make(chan struct{}), lastUse: t.clock}
	t.entries[key] = e
	t.mu.Unlock()

	t.misses.Add(1)
	finished := false
	defer func() {
		if finished {
			return
		}
		e.err = errors.New("runcache: fill panicked")
		close(e.ready)
		t.mu.Lock()
		delete(t.entries, key)
		t.mu.Unlock()
	}()
	val, cost, err := fn()
	finished = true
	e.val, e.err, e.cost = val, err, cost
	close(e.ready)

	t.mu.Lock()
	if err != nil {
		// Do not memoize failures: a later retry recomputes.
		delete(t.entries, key)
	} else {
		t.held += cost
		t.evictLocked(key)
	}
	t.mu.Unlock()
	return val, err
}

// evictLocked drops least-recently-used entries until the budget holds,
// never evicting the just-inserted key or entries still being computed.
func (t *table) evictLocked(justAdded any) {
	if t.budget <= 0 {
		return
	}
	for t.held > t.budget && len(t.entries) > 1 {
		var victimKey any
		var victim *entry
		for k, e := range t.entries {
			if k == justAdded || e.err != nil {
				continue
			}
			select {
			case <-e.ready:
			default:
				continue // in flight
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victimKey, victim = k, e
			}
		}
		if victim == nil {
			return
		}
		t.held -= victim.cost
		delete(t.entries, victimKey)
		t.evictions.Add(1)
	}
}

// get returns key's finished value without computing, filling or waiting:
// an in-flight or failed entry is a miss.
func (t *table) get(key any) (any, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[key]
	if !ok {
		return nil, false
	}
	select {
	case <-e.ready:
	default:
		return nil, false
	}
	if e.err != nil {
		return nil, false
	}
	t.clock++
	e.lastUse = t.clock
	return e.val, true
}

func (t *table) heldCost() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.held
}

func (t *table) len() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(len(t.entries))
}

func (t *table) reset() {
	t.mu.Lock()
	t.entries = make(map[any]*entry)
	t.held = 0
	t.mu.Unlock()
	t.hits.Store(0)
	t.misses.Store(0)
	t.evictions.Store(0)
}

// DefaultTraceBudget bounds the trace cache at 96M recorded accesses
// (~1.5 GiB), enough for a full-mode `-run all` working set while staying
// safe on small machines; the run-result table is unbounded (results are a
// few hundred bytes each).
const DefaultTraceBudget = 96 << 20

// logBudget bounds the memory-only call-log table, in encoded bytes. A
// log costs about 5 bytes per logged call. A full-size counter-grid
// baseline (8 cores × 600 000 accesses per core) logs 20–25 MB, so the
// budget holds about five of them; LogCapacity turns it into a count.
const logBudget = 128 << 20

// logBytesPerAccess bounds the log bytes one simulated memory access costs
// a baseline: measured 4.1–5.2 on full-size counter-grid baselines.
const logBytesPerAccess = 6

// LogCapacity returns how many baseline call logs the log table holds at
// once when each baseline simulates accesses memory accesses in total (at
// least 1). A grid that runs each batch of at most this many workloads'
// baselines just before their scheme cells finds every log still held.
func LogCapacity(accesses uint64) int {
	if accesses == 0 || accesses >= logBudget/logBytesPerAccess {
		return 1
	}
	return int(logBudget / (accesses * logBytesPerAccess))
}

// Codec serializes run-result values for the disk tier. The cache stores
// results as opaque `any` values, so the owner of the concrete type (the
// experiment layer, which caches stats.RunResult) supplies the encoding —
// the schema_version=1 versioned JSON. A Decode failure (e.g. an entry
// written by a newer schema) is a cache miss, never an error.
type Codec interface {
	Encode(v any) ([]byte, error)
	Decode(data []byte) (any, error)
}

// Disk-tier namespaces: trace sets and run results have different payload
// encodings, so they live under distinct content-hash namespaces.
const (
	nsTrace = "trace"
	nsRun   = "run"
)

// diskTier pairs the persistent store with the result codec.
type diskTier struct {
	store *diskcache.Store
	codec Codec
}

// Cache memoizes trace sets, unprotected-baseline results, and mitigated-run
// results, optionally backed by a persistent content-addressed disk tier.
// Lookups go memory → disk → compute: an in-memory hit never touches the
// disk, an in-memory miss consults the disk inside the singleflight fill
// (so concurrent requests share one disk read or one computation), and a
// computed fill writes through so the next process starts warm.
type Cache struct {
	traces  *table
	runs    *table
	mitruns *table
	// logs holds each simulated baseline's call log with its result, keyed
	// by RunKey. It is memory-only: a log is never written to the disk tier.
	logs *table

	replays, replayFallbacks atomic.Int64

	disk                                    atomic.Pointer[diskTier]
	diskTraceHits, diskRunHits, diskMitHits atomic.Int64
}

// New builds a cache bounding held trace data at traceBudget accesses
// (<= 0 selects DefaultTraceBudget).
func New(traceBudget int64) *Cache {
	if traceBudget <= 0 {
		traceBudget = DefaultTraceBudget
	}
	return &Cache{traces: newTable(traceBudget), runs: newTable(0), mitruns: newTable(0), logs: newTable(logBudget)}
}

// SetDisk attaches (or, with a nil store, detaches) the persistent tier.
// codec decodes and encodes run-result payloads; trace sets use the
// package's own binary codec. Safe to call concurrently with lookups:
// in-flight fills use whichever tier they loaded first.
func (c *Cache) SetDisk(store *diskcache.Store, codec Codec) {
	if store == nil {
		c.disk.Store(nil)
		return
	}
	c.disk.Store(&diskTier{store: store, codec: codec})
}

// Disk returns the attached persistent store (nil when memory-only).
func (c *Cache) Disk() *diskcache.Store {
	if d := c.disk.Load(); d != nil {
		return d.store
	}
	return nil
}

// diskTraces reads and decodes one trace set from the persistent tier.
func (c *Cache) diskTraces(d *diskTier, ck string) (TraceSet, bool) {
	data, ok := d.store.Get(nsTrace, ck)
	if !ok {
		return nil, false
	}
	ts, err := DecodeTraceSet(data)
	if err != nil {
		d.store.NoteDecodeFailure(nsTrace, ck, err)
		return nil, false
	}
	return ts, true
}

// Traces returns the recorded trace set for key, generating it with gen on
// the first request. Concurrent requests for the same key generate once; a
// persistent tier, when attached, is consulted before generating and filled
// after.
func (c *Cache) Traces(key TraceKey, gen func() (TraceSet, error)) (TraceSet, error) {
	v, err := c.traces.do(key, func() (any, int64, error) {
		ck := key.canonical()
		if d := c.disk.Load(); d != nil {
			if ts, ok := c.diskTraces(d, ck); ok {
				c.diskTraceHits.Add(1)
				return ts, ts.accesses(), nil
			}
			// Serialize the fill against other processes; whoever loses the
			// race finds the winner's entry on the second look.
			release := d.store.Lock(nsTrace, ck)
			defer release()
			if ts, ok := c.diskTraces(d, ck); ok {
				c.diskTraceHits.Add(1)
				return ts, ts.accesses(), nil
			}
		}
		ts, err := gen()
		if err != nil {
			return nil, 0, err
		}
		if d := c.disk.Load(); d != nil {
			d.store.Put(nsTrace, ck, EncodeTraceSet(ts))
		}
		return ts, ts.accesses(), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(TraceSet), nil
}

// resultMemo is the shared memory → disk → compute path for the two
// run-result tables.
func (c *Cache) resultMemo(t *table, key any, ck string, diskHits *atomic.Int64, fn func() (any, error)) (any, error) {
	return t.do(key, func() (any, int64, error) {
		if d := c.disk.Load(); d != nil && d.codec != nil {
			if v, ok := c.diskResult(d, ck); ok {
				diskHits.Add(1)
				return v, 1, nil
			}
			release := d.store.Lock(nsRun, ck)
			defer release()
			if v, ok := c.diskResult(d, ck); ok {
				diskHits.Add(1)
				return v, 1, nil
			}
		}
		v, err := fn()
		if err != nil {
			return nil, 0, err
		}
		if d := c.disk.Load(); d != nil && d.codec != nil {
			if data, encErr := d.codec.Encode(v); encErr == nil {
				d.store.Put(nsRun, ck, data)
			}
		}
		return v, 1, nil
	})
}

// diskResult reads and decodes one run result from the persistent tier.
func (c *Cache) diskResult(d *diskTier, ck string) (any, bool) {
	data, ok := d.store.Get(nsRun, ck)
	if !ok {
		return nil, false
	}
	v, err := d.codec.Decode(data)
	if err != nil {
		d.store.NoteDecodeFailure(nsRun, ck, err)
		return nil, false
	}
	return v, true
}

// peekResult reports a finished in-memory entry or a disk-tier entry for
// key without computing, filling, or joining anything: an in-flight fill is
// a miss (peeking must never block on another goroutine's computation), and
// a disk hit is returned without populating the memory tier, so probing a
// thousand planned cells does not inflate the working set.
func (c *Cache) peekResult(t *table, key any, ck string, diskHits *atomic.Int64) (any, bool) {
	if v, ok := t.get(key); ok {
		t.hits.Add(1)
		return v, true
	}
	d := c.disk.Load()
	if d == nil || d.codec == nil {
		return nil, false
	}
	v, ok := c.diskResult(d, ck)
	if !ok {
		return nil, false
	}
	diskHits.Add(1)
	return v, true
}

// PeekRun is the non-filling probe counterpart of Run: it reports whether a
// completed result for key is already held (memory or disk) without
// computing one.
func (c *Cache) PeekRun(key RunKey) (any, bool) {
	return c.peekResult(c.runs, key, key.canonical(), &c.diskRunHits)
}

// PeekMit is the non-filling probe counterpart of Mit.
func (c *Cache) PeekMit(key MitKey) (any, bool) {
	return c.peekResult(c.mitruns, key, key.canonical(), &c.diskMitHits)
}

// Run returns the memoized result for key, computing it with fn on the
// first request. The value is treated as immutable by all callers.
func (c *Cache) Run(key RunKey, fn func() (any, error)) (any, error) {
	return c.resultMemo(c.runs, key, key.canonical(), &c.diskRunHits, fn)
}

// Mit returns the memoized mitigated-run result for key, computing it with
// fn on the first request. Callers are responsible for only building MitKeys
// for schemes whose results are pure functions of the key (see MitKey).
func (c *Cache) Mit(key MitKey, fn func() (any, error)) (any, error) {
	return c.resultMemo(c.mitruns, key, key.canonical(), &c.diskMitHits, fn)
}

// loggedRun is one call-log table entry: a baseline's log and its result.
type loggedRun struct {
	log    *CallLog
	result any
}

// PutCallLog seals and holds the call log a simulated baseline recorded,
// together with the baseline's result. A log already held for key is kept.
func (c *Cache) PutCallLog(key RunKey, log *CallLog, result any) {
	log.Seal()
	c.logs.do(key, func() (any, int64, error) {
		return loggedRun{log: log, result: result}, log.Bytes(), nil
	})
}

// CallLog returns the call log and result held for key's baseline, if one
// was recorded by this process and not evicted since.
func (c *Cache) CallLog(key RunKey) (log *CallLog, result any, ok bool) {
	v, ok := c.logs.get(key)
	if !ok {
		return nil, nil, false
	}
	lr := v.(loggedRun)
	return lr.log, lr.result, true
}

// NoteReplay counts one replay of a call log: answered from the baseline,
// or fell back to a full simulation because a tracker acted.
func (c *Cache) NoteReplay(fellBack bool) {
	if fellBack {
		c.replayFallbacks.Add(1)
	} else {
		c.replays.Add(1)
	}
}

// Stats snapshots hit/miss/entry counters across both tiers.
func (c *Cache) Stats() Stats {
	s := Stats{
		TraceHits:         c.traces.hits.Load(),
		TraceMisses:       c.traces.misses.Load(),
		TraceEntries:      c.traces.len(),
		TraceEvictions:    c.traces.evictions.Load(),
		TraceAccessesHeld: c.traces.heldCost(),
		RunHits:           c.runs.hits.Load(),
		RunMisses:         c.runs.misses.Load(),
		RunEntries:        c.runs.len(),
		MitHits:           c.mitruns.hits.Load(),
		MitMisses:         c.mitruns.misses.Load(),
		MitEntries:        c.mitruns.len(),
		DiskTraceHits:     c.diskTraceHits.Load(),
		DiskRunHits:       c.diskRunHits.Load(),
		DiskMitHits:       c.diskMitHits.Load(),
		Replays:           c.replays.Load(),
		ReplayFallbacks:   c.replayFallbacks.Load(),
		LogBytesHeld:      c.logs.heldCost(),
	}
	if d := c.disk.Load(); d != nil {
		s.Disk = d.store.Stats()
	}
	return s
}

// Reset drops all in-memory entries, call logs included, and zeroes the
// counters (tests, benchmarks). The persistent tier is deliberately
// untouched: a Reset followed by re-running the same work is exactly the
// cross-process warm path, and the determinism tests rely on that.
func (c *Cache) Reset() {
	c.traces.reset()
	c.runs.reset()
	c.mitruns.reset()
	c.logs.reset()
	c.replays.Store(0)
	c.replayFallbacks.Store(0)
	c.diskTraceHits.Store(0)
	c.diskRunHits.Store(0)
	c.diskMitHits.Store(0)
}
