// Package workload provides the instruction/memory traces that drive the
// simulator. The paper uses execution traces of 12 SPEC2017, 6 GAP, and 4
// STREAM benchmarks (Table 3); those traces are proprietary to the authors'
// setup, so this package substitutes synthetic generators calibrated to the
// published per-workload characteristics: MPKI, memory-bandwidth demand,
// sequential (row-buffer) locality, and the row-activation histogram that
// drives DREAM-C's shared-counter behaviour.
//
// It also provides the attack patterns the security analysis needs:
// double-sided hammering, circular (ABCD)^N MINT-stressing patterns, the
// RMAQ-abuse pattern of §6.2, and the DREAM-C gang-focused DoS of §5.5.
package workload

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Params describes one synthetic workload generator.
type Params struct {
	Name string
	// MPKI is the target memory accesses per kilo-instruction reaching the
	// LLC-miss path (drives the instruction gaps between accesses).
	MPKI float64
	// WriteFrac is the store fraction of memory accesses.
	WriteFrac float64
	// SeqFrac is the probability that an access continues a sequential
	// line run (row-buffer and MOP locality).
	SeqFrac float64
	// SeqLen is the mean sequential run length, in cache lines.
	SeqLen int
	// FootprintMB is the per-core memory footprint.
	FootprintMB int
	// HotFrac is the fraction of the footprint that is "hot"; HotProb is
	// the probability a random (non-sequential) access lands in it. Hot
	// pages are what make set-associative grouping suffer (§5.2).
	HotFrac float64
	HotProb float64
}

// Gen is a deterministic synthetic trace implementing cpu.Trace.
type Gen struct {
	p         Params
	rng       *sim.RNG
	remaining uint64
	gapMean   float64

	baseLine  uint64
	footLines uint64
	hotLines  uint64

	cur    uint64
	runRem int
}

// New builds a generator emitting accesses memory accesses for core coreID.
// Distinct cores get disjoint footprints (rate-mode runs place 8 copies at
// different physical regions, as separate processes would).
func New(p Params, accesses uint64, coreID int, seed uint64) (*Gen, error) {
	if p.MPKI <= 0 {
		return nil, fmt.Errorf("workload: %q needs positive MPKI", p.Name)
	}
	if p.FootprintMB <= 0 {
		return nil, fmt.Errorf("workload: %q needs a footprint", p.Name)
	}
	if p.SeqLen <= 0 {
		p.SeqLen = 1
	}
	g := &Gen{
		p:         p,
		rng:       sim.NewRNG(seed ^ uint64(coreID)*0x9e3779b97f4a7c15 ^ hashName(p.Name)),
		remaining: accesses,
		gapMean:   1000.0/p.MPKI - 1,
		footLines: uint64(p.FootprintMB) << 20 / 64,
	}
	if g.gapMean < 0 {
		g.gapMean = 0
	}
	g.hotLines = uint64(float64(g.footLines) * p.HotFrac)
	if g.hotLines == 0 {
		g.hotLines = 1
	}
	// Spread core footprints across the 32 GB channel.
	const totalLines = 32 << 30 / 64
	g.baseLine = (uint64(coreID) * (totalLines / 16)) % totalLines
	g.cur = g.baseLine
	return g, nil
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Next implements cpu.Trace.
func (g *Gen) Next() (gap int, lineAddr uint64, isWrite bool, ok bool) {
	if g.remaining == 0 {
		return 0, 0, false, false
	}
	g.remaining--

	switch {
	case g.runRem > 0:
		g.runRem--
		g.cur++
	case g.rng.Float64() < g.p.SeqFrac:
		// Start a new sequential run at a random location.
		g.cur = g.baseLine + g.rng.Uint64()%g.footLines
		g.runRem = 1 + g.rng.Intn(2*g.p.SeqLen)
	case g.p.HotProb > 0 && g.rng.Float64() < g.p.HotProb:
		g.cur = g.baseLine + g.rng.Uint64()%g.hotLines
		g.runRem = 0
	default:
		g.cur = g.baseLine + g.rng.Uint64()%g.footLines
		g.runRem = 0
	}

	gap = g.expGap()
	isWrite = g.rng.Float64() < g.p.WriteFrac
	return gap, g.cur, isWrite, true
}

// expGap draws an exponentially distributed instruction gap with the
// calibrated mean.
func (g *Gen) expGap() int {
	if g.gapMean <= 0 {
		return 0
	}
	u := g.rng.Float64()
	if u >= 1 {
		u = 0.999999
	}
	return int(-g.gapMean * math.Log(1-u))
}

// Remaining reports accesses left; runcache.Record sizes its recording by it.
func (g *Gen) Remaining() uint64 { return g.remaining }
