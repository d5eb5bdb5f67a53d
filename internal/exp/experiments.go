package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/harness"
	"repro/internal/runcache"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options controls how experiments run.
type Options struct {
	// Quick shrinks runs (fewer accesses, workload subset) for benches and
	// CI; Full reproduces the complete figures.
	Quick bool
	Seed  uint64
	Out   io.Writer
	// Workloads overrides the workload list.
	Workloads []string
	// Executor, when non-nil, routes grid campaign cells through an
	// alternative execution backend (dreamctl's sharded fan-out across dreamd
	// endpoints); nil executes in-process on the shared worker pool.
	Executor Executor
	// ExtraSchemes appends registered scheme names as extra comparison
	// columns to experiments that support it (postdream); unknown names are
	// an error. This is how user-registered trackers join the figures.
	ExtraSchemes []string
}

func (o Options) out() io.Writer { return o.Out }

func (o Options) executor() Executor {
	if o.Executor != nil {
		return o.Executor
	}
	return localExecutor{}
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 0xd6ea11
	}
	return o.Seed
}

// quickSubset is the representative workload slice used in Quick mode: two
// SPEC streaming, one SPEC irregular, the two set-associative-grouping
// pathologies (lbm, parest), one GAP, one STREAM.
var quickSubset = []string{"bwaves", "lbm", "mcf", "parest", "tc", "triad"}

func (o Options) workloads() []string {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	if o.Quick {
		return quickSubset
	}
	return workload.Names()
}

// accesses returns the per-core trace length.
func (o Options) accesses() uint64 {
	if o.Quick {
		return 40_000
	}
	return 150_000
}

// counterAccesses returns the longer per-core trace length used by
// counter-tracker experiments (DREAM-C, ABACuS): their scaled thresholds
// need enough simulated time to stay clear of small-count noise.
func (o Options) counterAccesses() uint64 {
	if o.Quick {
		return 160_000
	}
	return 600_000
}

// windowScale returns the default simulated fraction of tREFW used to
// scale counter-tracker thresholds when no base measurement is available
// (direct Run calls); grid experiments derive it per workload from the
// measured baseline simulation time instead.
func (o Options) windowScale() float64 {
	if o.Quick {
		return 1.0 / 32
	}
	return 1.0 / 16
}

// scaleFromBase converts a baseline run's simulated time into the
// WindowScale for scheme runs on the same traces: counter thresholds are
// budgets per 32 ms refresh window, so a run covering simTime of the window
// uses simTime/tREFW of each budget (clamped to [1/128, 1]).
func scaleFromBase(simTimeNS float64) float64 {
	s := simTimeNS / 32e6
	if s > 1 {
		return 1
	}
	if s < 1.0/128 {
		return 1.0 / 128
	}
	return s
}

// Experiment regenerates one paper table or figure.
type Experiment struct {
	ID   string
	Desc string
	Run  func(o Options) error
}

// Registry lists every experiment, in paper order.
var Registry = []Experiment{
	{"fig5", "PARA & MINT slowdown with NRR/DRFMsb/DRFMab at T_RH=2K (motivation)", Fig5},
	{"table1", "Graphene storage vs threshold (analytic)", Table1},
	{"table3", "Workload characterisation (MPKI, ACTs/row, BW util)", Table3},
	{"table4", "Revised tracker parameters under DREAM-R (analytic)", Table4},
	{"table5", "Average RLP: coupled DRFMsb vs DREAM-R", Table5},
	{"fig9", "PARA & MINT slowdown: NRR vs DRFMsb vs DREAM-R at T_RH=2K", Fig9},
	{"fig10", "DREAM-R sensitivity to T_RH (0.5K-4K)", Fig10},
	{"fig11", "Inter-selection distance Monte Carlo: PARA vs MINT", Fig11},
	{"fig15top", "DREAM-C set-associative vs randomized grouping at T_RH=500", Fig15Top},
	{"fig15bot", "DREAM-C randomized grouping sensitivity (T_RH 250/500/1000)", Fig15Bot},
	{"table6", "DREAM-C configurations and storage vs Graphene (analytic)", Table6},
	{"table7", "DREAM-R tolerated T_RH with/without the DRFM rate limit (analytic)", Table7},
	{"fig17", "ABACuS vs DREAM-C vs DREAM-C(2x) at T_RH=125", Fig17},
	{"fig19", "PRAC (MOAT) vs MINT(DREAM-R) vs DREAM-C across T_RH", Fig19},
	{"fig22", "DREAM-C with 16 cores; DREAM-C(2x) (Appendix C)", Fig22},
	{"fig23", "Mixed workloads: MOAT vs DREAM-R vs DREAM-C (Appendix D)", Fig23},
	{"dos", "DREAM-C worst-case DoS throughput analysis (§5.5)", DoS},
	{"security", "Attack audit: max unmitigated activations per scheme", Security},
	{"ablation-delay", "Ablation: coupled vs delayed DRFM (the RLP mechanism)", AblationDelay},
	{"ablation-atm", "Ablation: DREAM-R revised-parameters vs ATM", AblationATM},
	{"ablation-grouping", "Ablation: DCT grouping functions and entry multipliers", AblationGrouping},
	{"ablation-pagepolicy", "Ablation: MOP close-after-N page policy", AblationPagePolicy},
	{"ablation-drfmkind", "Ablation: DREAM-R over DRFMsb vs DRFMab", AblationDRFMKind},
	{"postdream", "Post-DREAM trackers (DAPPER, QPRAC, prob policies) vs DREAM at equal storage", PostDream},
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, error) {
	for _, e := range Registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q (see Registry)", id)
}

// slowdownGrid runs base plus each scheme for each workload with the
// default per-core trace length and returns slowdowns[workload][scheme].
func slowdownGrid(o Options, wls []string, trh int, cores int, schemes []Scheme) (map[string]map[string]float64, map[string]map[string]stats.RunResult, error) {
	return slowdownGridN(o, wls, trh, cores, schemes, o.accesses())
}

// slowdownGridN is slowdownGrid with an explicit per-core trace length.
// Baselines run first so each workload's counter-threshold WindowScale can
// be derived from its measured simulation time.
//
// The grid degrades instead of aborting: when runs fail, the surviving
// cells are still returned and every failed or skipped cell is marked NaN
// in slow (rendered as FAIL by stats.Pct), with the underlying failures
// joined into the returned error. Callers should render what survived and
// then propagate the error.
func slowdownGridN(o Options, wls []string, trh int, cores int, schemes []Scheme, accesses uint64) (map[string]map[string]float64, map[string]map[string]stats.RunResult, error) {
	g := slowdownGrids(o, wls, []int{trh}, cores, schemes, accesses)[0]
	return g.slow, g.raw, g.err
}

// gridResult is one grid's outcome, as slowdownGridN returns it.
type gridResult struct {
	slow map[string]map[string]float64
	raw  map[string]map[string]stats.RunResult
	err  error
}

// slowdownGrids runs the slowdown grid of schemes at each threshold in
// trhs, all over the same workloads, core count and trace length, and
// returns one result per threshold, each degrading as slowdownGridN
// describes. Every grid's baselines are the same runs.
//
// The workloads go in batches of as many as the run cache holds baseline
// call logs for (runcache.LogCapacity), and every grid of a batch runs
// before the next batch starts. So each scheme cell runs while its
// baseline's log is still held and can be answered by replaying it, rather
// than after the other workloads' baselines have evicted it. Small grids
// are one batch; a full-size 8-core counter grid (600 000 accesses per
// core) goes four workloads at a time. A failed cell cancels only the
// unclaimed cells of its own wave; later batches still run.
func slowdownGrids(o Options, wls []string, trhs []int, cores int, schemes []Scheme, accesses uint64) []gridResult {
	return slowdownGridsBatched(o, wls, trhs, cores, schemes, accesses, runcache.LogCapacity(uint64(cores)*accesses))
}

// slowdownGridsBatched is slowdownGrids with an explicit batch size.
func slowdownGridsBatched(o Options, wls []string, trhs []int, cores int, schemes []Scheme, accesses uint64, batch int) []gridResult {
	out := make([]gridResult, len(trhs))
	fails := make([][]error, len(trhs))
	for i := range out {
		out[i].slow = make(map[string]map[string]float64)
		out[i].raw = make(map[string]map[string]stats.RunResult)
		for _, wl := range wls {
			out[i].slow[wl] = make(map[string]float64)
			out[i].raw[wl] = make(map[string]stats.RunResult)
		}
	}
	for lo := 0; lo < len(wls); lo += batch {
		part := wls[lo:min(lo+batch, len(wls))]
		for i, trh := range trhs {
			fails[i] = append(fails[i], runGrid(o, part, trh, cores, schemes, accesses, out[i])...)
		}
	}
	for i := range out {
		out[i].err = errors.Join(fails[i]...)
	}
	return out
}

// runGrid runs one grid over wls into g's maps and returns its failures.
// It is a two-wave campaign: plan and execute the baselines, derive each
// workload's WindowScale from its measured baseline, then plan and execute
// the scheme cells with the scale stamped in. Both waves go through the
// Options executor, so the same planner output runs in-process or fanned
// out across dreamd shards.
func runGrid(o Options, wls []string, trh int, cores int, schemes []Scheme, accesses uint64, g gridResult) []error {
	markFailed := func(wl string) {
		for _, sc := range schemes {
			g.slow[wl][sc.Name] = math.NaN()
		}
	}
	ctx := context.Background()
	ex := o.executor()
	base := make(map[string]stats.RunResult)
	baseCells := PlanGridBase(wls, trh, cores, accesses, o.seed())
	baseRes := ex.ExecCells(ctx, baseCells)
	// Scheme runs need their workload's measured baseline (WindowScale);
	// a workload whose baseline failed fails whole-row.
	var good []string
	var fails []error
	for i, wl := range wls {
		if err := baseRes[i].Err; err != nil {
			markFailed(wl)
			if !errors.Is(err, harness.ErrSkipped) {
				fails = append(fails, err)
			}
			continue
		}
		base[wl] = baseRes[i].Res
		g.raw[wl]["base"] = baseRes[i].Res
		good = append(good, wl)
	}

	cells := PlanGridSchemes(good, schemeNames(schemes), trh, cores, accesses, o.seed(),
		func(wl string) uint64 { return math.Float64bits(scaleFromBase(base[wl].SimTimeNS)) })
	results := ex.ExecCells(ctx, cells)
	for i, c := range cells {
		if err := results[i].Err; err != nil {
			g.slow[c.Workload][c.Scheme] = math.NaN()
			if !errors.Is(err, harness.ErrSkipped) {
				fails = append(fails, err)
			}
			continue
		}
		g.raw[c.Workload][c.Scheme] = results[i].Res
		g.slow[c.Workload][c.Scheme] = stats.Slowdown(base[c.Workload], results[i].Res)
	}
	return fails
}

// printSlowdownTable renders a per-workload slowdown table plus the average
// row, with scheme columns in the given order. Failed cells (NaN, see
// slowdownGridN) render as FAIL and are excluded from the average, so a
// degraded grid still yields a readable figure.
func printSlowdownTable(w io.Writer, title string, wls []string, schemeNames []string, slow map[string]map[string]float64) {
	t := stats.Table{Title: title, Columns: append([]string{"workload"}, schemeNames...)}
	avg := make(map[string]float64)
	cnt := make(map[string]int)
	for _, wl := range wls {
		row := []string{wl}
		for _, s := range schemeNames {
			v := slow[wl][s]
			if !math.IsNaN(v) {
				avg[s] += v
				cnt[s]++
			}
			row = append(row, stats.Pct(v))
		}
		t.AddRow(row...)
	}
	row := []string{"AVERAGE"}
	for _, s := range schemeNames {
		if cnt[s] == 0 {
			row = append(row, stats.Pct(math.NaN()))
			continue
		}
		row = append(row, stats.Pct(avg[s]/float64(cnt[s])))
	}
	t.AddRow(row...)
	fmt.Fprintln(w, t.String())
}

// schemeNames extracts names preserving order.
func schemeNames(schemes []Scheme) []string {
	out := make([]string, len(schemes))
	for i, s := range schemes {
		out[i] = s.Name
	}
	return out
}

// averageBy computes per-scheme averages over workloads, skipping failed
// (NaN) cells; a scheme with no surviving cells averages to NaN (FAIL).
func averageBy(wls []string, names []string, slow map[string]map[string]float64) map[string]float64 {
	avg := make(map[string]float64)
	cnt := make(map[string]int)
	for _, wl := range wls {
		for _, s := range names {
			if v := slow[wl][s]; !math.IsNaN(v) {
				avg[s] += v
				cnt[s]++
			}
		}
	}
	for _, s := range names {
		if cnt[s] == 0 {
			avg[s] = math.NaN()
			continue
		}
		avg[s] /= float64(cnt[s])
	}
	return avg
}

func sortedFloatKeys(m map[int]float64) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
