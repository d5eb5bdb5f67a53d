package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"time"

	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/runcache"
	"repro/internal/stats"
	"repro/internal/workload"
)

// grid-cold: a figure-style slowdown grid rendered with a fresh in-memory
// run cache and no disk tier, the way a researcher renders a figure cold.
const (
	gridTRH   = 2000
	gridCores = 8
	setupReps = 9
)

var gridWorkloads = []string{"mcf", "parest", "triad"}

// paperSlowdown is the average slowdown EXPERIMENTS.md quotes from the
// paper's Figures 5 and 9 at T_RH = 2K (22 workloads). Schemes the paper
// does not plot there are absent.
var paperSlowdown = map[string]float64{
	"para-drfmsb": 0.127, "mint-drfmsb": 0.159,
	"para-dreamr": 0.0424, "mint-dreamr": 0.021,
}

// scaleFromBase mirrors the figure grids: counter thresholds scale by the
// baseline's simulated fraction of the 32 ms refresh window, clamped to
// [1/128, 1].
func scaleFromBase(simTimeNS float64) float64 {
	return math.Min(1, math.Max(1.0/128, simTimeNS/32e6))
}

// gridRep is one executed grid: cells in plan order (baselines first) with
// their results, errors and latencies.
type gridRep struct {
	cells []exp.CampaignCell
	res   []stats.RunResult
	errs  []error
	lat   []time.Duration
}

// cellExec runs one planned cell.
type cellExec func(i int, c exp.CampaignCell) (stats.RunResult, error)

// execGrid plans and executes one grid in two waves, as the figure
// grids do: baselines, then every (workload, family) cell with the
// WindowScale derived from its workload's baseline. Cells run one at a
// time, as every serial workload's operations do.
func execGrid(seed, accesses uint64, run cellExec) (*gridRep, error) {
	g := &gridRep{cells: exp.PlanGridBase(gridWorkloads, gridTRH, gridCores, accesses, seed)}
	wave := func(from int) {
		n := len(g.cells) - from
		g.res = append(g.res, make([]stats.RunResult, n)...)
		g.errs = append(g.errs, make([]error, n)...)
		g.lat = append(g.lat, make([]time.Duration, n)...)
		for i := from; i < from+n; i++ {
			t := time.Now()
			g.res[i], g.errs[i] = run(i, g.cells[i])
			g.lat[i] = time.Since(t)
		}
	}
	wave(0)
	base := make(map[string]float64)
	for i, c := range g.cells {
		if g.errs[i] != nil {
			return g, fmt.Errorf("baseline %s: %w", c.Workload, g.errs[i])
		}
		base[c.Workload] = g.res[i].SimTimeNS
	}
	nBase := len(g.cells)
	g.cells = append(g.cells, exp.PlanGridSchemes(gridWorkloads, families, gridTRH, gridCores, accesses, seed,
		func(wl string) uint64 { return math.Float64bits(scaleFromBase(base[wl])) })...)
	wave(nBase)
	return g, nil
}

// checkCell verifies one cell's result is the simulation it asked for.
func (b *bench) checkCell(c exp.CampaignCell, r stats.RunResult, err error) {
	switch {
	case err != nil:
		b.problem("cell %s/%s seed %d: %v", c.Workload, c.Scheme, c.Seed, err)
	case r.Scheme != c.Scheme || r.Workload != c.Workload || r.TRH != c.TRH:
		b.problem("cell %s/%s answered as %s/%s", c.Workload, c.Scheme, r.Workload, r.Scheme)
	case len(r.CoreRetired) != c.Cores || r.SimTimeNS <= 0 || r.Reads == 0:
		b.problem("cell %s/%s seed %d simulated nothing", c.Workload, c.Scheme, c.Seed)
	default:
		b.op(false)
		return
	}
	b.op(true)
}

// printPaperComparison prints each family's simulated average slowdown
// beside the paper's value. It is informational and never gated.
func (b *bench) printPaperComparison(g *gridRep) {
	base := make(map[string]stats.RunResult)
	sum := make(map[string]float64)
	for i, c := range g.cells {
		if c.Scheme == exp.Baseline.Name {
			base[c.Workload] = g.res[i]
		} else {
			sum[c.Scheme] += stats.Slowdown(base[c.Workload], g.res[i])
		}
	}
	b.note("paper comparison (informational, not gated): %d-workload subset %v at T_RH=%d, LLC starts empty, model not validated against hardware",
		len(gridWorkloads), gridWorkloads, gridTRH)
	for _, f := range families {
		paper := "not plotted in Figs 5/9"
		if p, ok := paperSlowdown[f]; ok {
			paper = fmt.Sprintf("%6.2f%%", 100*p)
		}
		b.note("  %-18s simulated %7.2f%%   paper %s", f, 100*sum[f]/float64(len(gridWorkloads)), paper)
	}
}

// gridSetup is the cold workloads' set-up: resolve and validate the plan
// and warm the process with one short simulation of the grid's machine,
// leaving the run cache empty and without a disk tier.
func gridSetup(b *bench, rep int) error {
	cells := exp.PlanGridBase(gridWorkloads, gridTRH, gridCores, b.sz.gridAccesses, b.seed)
	cells = append(cells, exp.PlanGridSchemes(gridWorkloads, families, gridTRH, gridCores, b.sz.gridAccesses, b.seed,
		func(string) uint64 { return math.Float64bits(1) })...)
	for _, c := range cells {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("planned cell: %w", err)
		}
	}
	warm := exp.PlanGridBase(gridWorkloads[:1], gridTRH, gridCores, 10_000, mix(b.seed, 1<<32, uint64(rep)))[0]
	if _, err := exp.ExecCell(context.Background(), warm); err != nil {
		return fmt.Errorf("warm-up cell: %w", err)
	}
	exp.ResetCache()
	return nil
}

func runGridCold(b *bench) error {
	ctx := context.Background()
	setup, err := b.timeSetup(setupReps, func(rep int) error { return gridSetup(b, rep) })
	if err != nil {
		return err
	}
	cd := newCacheDelta()
	var (
		reps                []repStat
		lat                 []time.Duration
		first               *gridRep
		tracedWall, rawWall time.Duration
		sums                layerSums
		genTime             time.Duration
		genAccesses, events int64
	)
	phase := time.Now()
	deadline := b.deadline(phase)
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		seed := mix(b.seed, uint64(rep))
		exp.ResetCache()
		m := startMeter()
		g, err := execGrid(seed, b.sz.gridAccesses, func(_ int, c exp.CampaignCell) (stats.RunResult, error) {
			return exp.ExecCell(ctx, c)
		})
		st := m.stop()
		cd.fold()
		if err != nil {
			return err
		}
		for i, c := range g.cells {
			b.checkCell(c, g.res[i], g.errs[i])
		}
		reps = append(reps, st)
		lat = append(lat, g.lat...)
		if rep == 0 {
			first = g
			b.printPaperComparison(g)
			b.noteMitigations("cell", g.res, func(i int) string { return g.cells[i].Workload + "/" + g.cells[i].Scheme })
		}
		if !b.traced {
			continue
		}
		rawWall += st.wall
		repID := fmt.Sprintf("rep%d", rep)
		b.tr.add(repID+"/untraced", "grid", "", m.t0, m.t0.Add(st.wall), nil)

		// Traced pass: the same grid through exp.Run with explicit traces
		// (workload.Rate + runcache.RecordAll, replayed through a timed
		// cpu.Trace) and timed mitigators around each registered Build function.
		ev0 := exp.SimEvents()
		t0 := time.Now()
		sets := make(map[string]runcache.TraceSet)
		tg, err := execGrid(seed, b.sz.gridAccesses, func(i int, c exp.CampaignCell) (stats.RunResult, error) {
			id := fmt.Sprintf("%s/cell%d", repID, i)
			if c.Scheme == exp.Baseline.Name {
				gs := time.Now()
				gens, err := workload.Rate(c.Workload, c.Cores, c.Accesses, c.Seed)
				if err != nil {
					return stats.RunResult{}, err
				}
				srcs := make([]runcache.Source, len(gens))
				for k, g := range gens {
					srcs[k] = g
				}
				ts := runcache.RecordAll(srcs)
				ge := time.Now()
				var n int64
				for _, t := range ts {
					n += int64(len(t))
				}
				b.tr.add(id+"/gen", "workload.gen", id, gs, ge, map[string]float64{"accesses": float64(n)})
				sets[c.Workload] = ts
				genTime += ge.Sub(gs)
				genAccesses += n
			}
			return b.tracedCell(id, repID, c, sets[c.Workload], &sums)
		})
		tracedWall += time.Since(t0)
		events += int64(exp.SimEvents() - ev0)
		b.tr.add(repID+"/traced", "grid", "", t0, time.Now(), nil)
		if err != nil {
			return err
		}
		for i, c := range tg.cells {
			if tg.errs[i] == nil && !reflect.DeepEqual(tg.res[i], g.res[i]) {
				tg.errs[i] = fmt.Errorf("traced result differs from the untraced cell")
			}
			b.checkCell(c, tg.res[i], tg.errs[i])
		}
	}
	phaseDur := time.Since(phase)
	b.checkCold(cd)
	if err := b.checkDigest(first.res); err != nil {
		return err
	}
	if !b.traced {
		b.reportE2E(setup, reps, len(lat), phaseDur, lat)
		return nil
	}
	b.zeroLayers()
	b.reportSim(first.res)
	b.reportCache(cd)
	b.reportLayers(&sums, tracedWall, uint64(events))
	b.set("workload.gen_s", genTime.Seconds())
	b.set("workload.accesses", float64(genAccesses))
	b.set("trace.overhead_ratio", tracedWall.Seconds()/rawWall.Seconds())
	b.set("fail_ratio", float64(b.failed)/float64(b.attempted))
	return nil
}

// tracedCell runs one grid cell through exp.Run on replayed traces with
// the scheme's mitigators timed, recording its span.
func (b *bench) tracedCell(id, parent string, c exp.CampaignCell, ts runcache.TraceSet, sums *layerSums) (stats.RunResult, error) {
	sc, ok := exp.SchemeByName(c.Scheme)
	if !ok {
		return stats.RunResult{}, fmt.Errorf("unknown scheme %q", c.Scheme)
	}
	lt := &layerTimes{}
	if sc.Build != nil {
		sc = exp.Scheme{Name: sc.Name, PRAC: sc.PRAC,
			Build: timedBuild(sc.Build, func(exp.Env) *layerTimes { return lt })}
	}
	traces := make([]cpu.Trace, len(ts))
	for k := range ts {
		traces[k] = timedTrace{t: runcache.NewReplayer(ts[k]), l: lt}
	}
	var ws float64
	if c.WindowScaleBits != 0 {
		ws = math.Float64frombits(c.WindowScaleBits)
	}
	start := time.Now()
	r, err := exp.Run(exp.RunConfig{
		Workload: c.Workload, Cores: c.Cores, AccessesPerCore: c.Accesses, TRH: c.TRH,
		Scheme: sc, Seed: c.Seed, WindowScale: ws, MOPCap: c.MOPCap, Traces: traces,
	})
	end := time.Now()
	b.tr.add(id, "exp.Run", parent, start, end, lt.attrs())
	sums.addRun(c.Scheme, end.Sub(start), lt)
	return r, err
}
