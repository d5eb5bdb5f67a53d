package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// decl is one reported metric. Every workload reports every metric of its
// mode; a per-layer metric a workload does not exercise reads 0.
type decl struct{ name, unit string }

// e2eMetrics are reported by untraced runs (--trace 0). A "repetition" is
// one whole grid (grid-cold), one round of attacks (attack-audit) or one
// round of requests (service-mix); an "operation" is one cell, attack or
// request.
var e2eMetrics = []decl{
	{"setup_s", "s"},         // entry to main plus one set-up (median of several set-ups)
	{"wall_s", "s"},          // median host makespan of one repetition
	{"cpu_s", "s"},           // median process CPU (user+sys) of one repetition
	{"peak_rss_mb", "MB"},    // peak resident memory of the process
	{"req_per_s", "1/s"},     // operations completed per host second of the measured phase
	{"latency_p50_ms", "ms"}, // client-side operation latency, median
	{"latency_p95_ms", "ms"}, // client-side operation latency, 95th percentile
}

// families are the scheme families every cold workload covers, one
// registered scheme each.
var families = []string{
	"para-drfmsb", "mint-drfmsb", "para-dreamr", "mint-dreamr", "graphene-drfmsb",
	"dreamc-randomized", "abacus", "moat", "qprac", "dapper", "prob-hybrid",
}

// layerMetrics are reported by traced runs (--trace 1).
var layerMetrics = func() []decl {
	d := []decl{
		{"exp.cells", "count"},
		{"exp.cell_busy_s", "s"},
		{"exp.busy_s.base", "s"},
	}
	for _, f := range families {
		d = append(d, decl{"exp.busy_s." + f, "s"})
	}
	return append(d, []decl{
		{"exp.pool_idle_s", "s"},
		{"workload.gen_s", "s"},
		{"workload.accesses", "count"},
		{"runcache.trace_hits", "count"},
		{"runcache.trace_misses", "count"},
		{"runcache.run_hits", "count"},
		{"runcache.run_misses", "count"},
		{"runcache.mit_hits", "count"},
		{"runcache.mit_misses", "count"},
		{"runcache.disk_hits", "count"},
		{"runcache.trace_accesses_held", "count"},
		{"runcache.replay_s", "s"},
		{"runcache.replay_calls", "count"},
		{"diskcache.hits", "count"},
		{"diskcache.misses", "count"},
		{"diskcache.puts", "count"},
		{"diskcache.corrupt", "count"},
		{"diskcache.errors", "count"},
		{"diskcache.lock_waits", "count"},
		{"diskcache.bytes_held", "B"},
		{"tracker.activate_s", "s"},
		{"tracker.activate_calls", "count"},
		{"tracker.refresh_s", "s"},
		{"tracker.mitigations_s", "s"},
		{"tracker.sampled_s", "s"},
		{"tracker.ops", "count"},
		{"system.self_s", "s"},
		{"system.events", "count"},
		{"system.ns_per_event", "ns"},
		{"cpu.retired", "count"},
		{"cpu.ipc_mean", "1"},
		{"cache.mpki", "1"},
		{"memctrl.activations", "count"},
		{"memctrl.row_hits", "count"},
		{"memctrl.avg_read_ns", "ns"},
		{"dram.reads", "count"},
		{"dram.writes", "count"},
		{"dram.refreshes", "count"},
		{"dram.nrr", "count"},
		{"dram.drfm", "count"},
		{"dram.mitigations", "count"},
		{"dram.rlp", "1"},
		{"dram.bw_util", "1"},
		{"sim.time_ns", "ns"},
		{"security.max_victim", "count"},
		{"security.breaches", "count"},
		{"svc.server_ms.p50", "ms"},
		{"svc.server_ms.p95", "ms"},
		{"svc.http_ms.p50", "ms"},
		{"svc.latency_ms.hit.p50", "ms"},
		{"svc.latency_ms.miss.p50", "ms"},
		{"svc.cache_hit_ratio", "1"},
		{"svc.deduped", "count"},
		{"svc.rejected", "count"},
		{"svc.failed", "count"},
		{"svc.retries", "count"},
		{"trace.overhead_ratio", "1"},
		{"fail_ratio", "1"},
	}...)
}()

// declared lists the metrics of one mode.
func declared(traced bool) []decl {
	if traced {
		return layerMetrics
	}
	return e2eMetrics
}

func unitOf(name string, traced bool) (string, bool) {
	for _, d := range declared(traced) {
		if d.name == name {
			return d.unit, true
		}
	}
	return "", false
}

// zeroLayers sets every per-layer metric to 0 so a workload only overwrites
// the layers it exercises.
func (b *bench) zeroLayers() {
	for _, d := range layerMetrics {
		b.metrics[d.name] = metric{Unit: d.unit}
	}
}

// reportE2E sets the end-to-end metrics from one measured phase.
func (b *bench) reportE2E(setup []time.Duration, reps []repStat, ops int, phase time.Duration, lat []time.Duration) {
	b.set("setup_s", medianDur(setup).Seconds())
	walls := make([]time.Duration, len(reps))
	cpus := make([]time.Duration, len(reps))
	for i, r := range reps {
		walls[i], cpus[i] = r.wall, r.cpu
	}
	b.set("wall_s", medianDur(walls).Seconds())
	b.set("cpu_s", medianDur(cpus).Seconds())
	b.set("peak_rss_mb", peakRSSMB())
	b.set("req_per_s", float64(ops)/phase.Seconds())
	b.set("latency_p50_ms", ms(percentile(lat, 50)))
	b.set("latency_p95_ms", ms(percentile(lat, 95)))
	beyond := len(lat) - int(math.Ceil(0.95*float64(len(lat))))
	if beyond < 0 {
		beyond = 0
	}
	b.note("latency samples=%d (%d beyond p95), repetitions=%d", len(lat), beyond, len(reps))
}

// timeSetup runs a workload's set-up n times and returns each repetition's
// duration plus the process's time before the first, so that each reads as
// the time from entry to main to the end of a single set-up.
func (b *bench) timeSetup(n int, setup func(rep int) error) ([]time.Duration, error) {
	before := time.Since(b.start)
	d := make([]time.Duration, n)
	for i := range d {
		t := time.Now()
		if err := setup(i); err != nil {
			return nil, err
		}
		d[i] = before + time.Since(t)
	}
	return d, nil
}

// repStat is the host cost of one repetition.
type repStat struct{ wall, cpu time.Duration }

// meter measures one repetition's wall and process CPU time.
type meter struct {
	t0   time.Time
	cpu0 time.Duration
}

func startMeter() meter { return meter{time.Now(), cpuTime()} }

func (m meter) stop() repStat {
	return repStat{wall: time.Since(m.t0), cpu: cpuTime() - m.cpu0}
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// percentile interpolates linearly between order statistics (p in 0..100).
func percentile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func medianDur(d []time.Duration) time.Duration { return percentile(d, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mix derives a well-spread non-zero 64-bit value from a seed and indices
// (splitmix64 finalizer), so every repetition and operation gets its own
// deterministic input.
func mix(seed uint64, idx ...uint64) uint64 {
	x := seed
	for _, i := range idx {
		x ^= i + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	if x == 0 {
		x = 1
	}
	return x
}
