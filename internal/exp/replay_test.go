package exp

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/stats"
)

// replayGridSchemes is one scheme per tracker family, PRAC schemes included.
var replayGridSchemes = goldenAttackFamilies

// gridCell is one cell of a small figure-style grid.
func gridCell(wl string, seed uint64, sc Scheme, ws float64) RunConfig {
	return RunConfig{
		Workload: wl, Cores: 4, AccessesPerCore: 5000, TRH: 2000,
		Scheme: sc, Seed: seed, WindowScale: ws,
	}
}

// TestReplayMatchesSimulation is the exactness test of replay before
// simulating: a small figure-style grid (3 workloads, 2 seeds, every tracker
// family, WindowScale derived from each baseline as the figure grids do)
// runs once with the cache off, where every cell simulates, and once with
// it on, where each baseline runs first and records its call log and every
// scheme cell replays that log before simulating. Every cell must come back
// reflect.DeepEqual to its simulation, and the grid must exercise both
// outcomes: cells answered from the log and cells that fell back.
func TestReplayMatchesSimulation(t *testing.T) {
	wls := []string{"mcf", "parest", "triad"}
	seeds := []uint64{0x1901, 0x1902}
	type cell struct {
		wl   string
		seed uint64
		sc   string
	}
	want := map[cell]runOutcome{}
	withFreshCache(t, func() {
		SetCacheEnabled(false)
		for _, wl := range wls {
			for _, seed := range seeds {
				base, err := Run(gridCell(wl, seed, Baseline, 0))
				if err != nil {
					t.Fatal(err)
				}
				ws := scaleFromBase(base.SimTimeNS)
				for _, name := range replayGridSchemes {
					sc, _ := SchemeByName(name)
					r, err := Run(gridCell(wl, seed, sc, ws))
					want[cell{wl, seed, name}] = runOutcome{r, err}
				}
			}
		}
	})

	withFreshCache(t, func() {
		replayed := 0
		for _, wl := range wls {
			for _, seed := range seeds {
				base, err := Run(gridCell(wl, seed, Baseline, 0))
				if err != nil {
					t.Fatal(err)
				}
				ws := scaleFromBase(base.SimTimeNS)
				for _, name := range replayGridSchemes {
					sc, _ := SchemeByName(name)
					before := CacheStats().Replays
					r, err := Run(gridCell(wl, seed, sc, ws))
					w := want[cell{wl, seed, name}]
					if err != nil || w.err != nil {
						t.Fatalf("%s/%s seed %#x: cached err %v, uncached err %v", wl, name, seed, err, w.err)
					}
					if !reflect.DeepEqual(r, w.res) {
						t.Errorf("%s/%s seed %#x (replayed=%v): cached result differs from the simulation:\ncached    %+v\nsimulated %+v",
							wl, name, seed, CacheStats().Replays > before, r, w.res)
					}
					if CacheStats().Replays > before {
						replayed++
					}
				}
			}
		}
		st := CacheStats()
		t.Logf("%d of %d cells replayed, %d fell back; %d bytes of call logs held",
			replayed, len(want), st.ReplayFallbacks, st.LogBytesHeld)
		if st.Replays == 0 || st.ReplayFallbacks == 0 {
			t.Errorf("replays %d, fallbacks %d: the grid must exercise both outcomes", st.Replays, st.ReplayFallbacks)
		}
		if st.LogBytesHeld == 0 {
			t.Error("no call log held after the baselines simulated")
		}
	})
}

// runOutcome pairs one run's result with its error.
type runOutcome struct {
	res stats.RunResult
	err error
}

// TestReplayConcurrentWithBaseline requests one silent mitigated cell and
// its baseline from several goroutines at once through ParallelCtx, so the
// mitigated cell may find no log yet, or one its baseline just recorded.
// Every result must equal a cache-off run, and the replay path must have
// been taken at least once across the rounds. Run under -race.
func TestReplayConcurrentWithBaseline(t *testing.T) {
	sc, _ := SchemeByName("graphene-drfmsb")
	base := gridCell("mcf", 0x7ace, Baseline, 0)
	mit := gridCell("mcf", 0x7ace, sc, 1.0/128)
	var wantBase, wantMit runOutcome
	withFreshCache(t, func() {
		SetCacheEnabled(false)
		wantBase.res, wantBase.err = Run(base)
		wantMit.res, wantMit.err = Run(mit)
	})
	if wantBase.err != nil || wantMit.err != nil {
		t.Fatal(wantBase.err, wantMit.err)
	}
	withFreshCache(t, func() {
		for round := 0; round < 3; round++ {
			ResetCache()
			const n = 8
			res, _, err := ParallelCtx(context.Background(), n, func(ctx context.Context, i int) (runOutcome, error) {
				cfg := base
				if i%2 == 1 {
					cfg = mit
				}
				cfg.Ctx = ctx
				r, err := Run(cfg)
				return runOutcome{r, nil}, err
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range res {
				want := wantBase.res
				if i%2 == 1 {
					want = wantMit.res
				}
				if !reflect.DeepEqual(r.res, want) {
					t.Errorf("round %d job %d: result differs from the cache-off run", round, i)
				}
			}
		}
		// A final pass after the baseline is held must take the replay path.
		ResetCache()
		if _, err := Run(base); err != nil {
			t.Fatal(err)
		}
		r, err := Run(mit)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r, wantMit.res) {
			t.Error("replayed cell differs from the cache-off run")
		}
		if st := CacheStats(); st.Replays != 1 || st.ReplayFallbacks != 0 {
			t.Errorf("replays %d, fallbacks %d after baseline then silent cell; want 1, 0", st.Replays, st.ReplayFallbacks)
		}
	})
}

// callCounter never acts; its StorageBits reports how many calls it saw, so
// a result answered from a replay shows whether every call was replayed.
type callCounter struct {
	memctrl.None
	acts, refs int64
	// actAtRef, when non-zero, makes OnRefresh ask for one NRR at that REF:
	// a tracker that acts only at refresh.
	actAtRef uint64
}

func (c *callCounter) OnActivate(sim.Tick, int, uint32) memctrl.Decision {
	c.acts++
	return memctrl.Decision{}
}

func (c *callCounter) OnRefresh(_ sim.Tick, idx uint64) []memctrl.Op {
	c.refs++
	if c.actAtRef != 0 && idx == c.actAtRef {
		return []memctrl.Op{{Kind: memctrl.OpNRR, Bank: 3, Row: 77}}
	}
	return nil
}

func (c *callCounter) StorageBits() int64 { return c.acts<<20 | c.refs }

// TestReplayDeliversEveryCall checks the replay against two trackers the
// registry does not have: one that never acts but counts every call it gets
// (the replayed result must carry the simulation's counts), and one that
// acts only from OnRefresh (the replay must notice and fall back).
func TestReplayDeliversEveryCall(t *testing.T) {
	counting := Scheme{Name: "test-call-counter", Pure: true,
		Build: func(Env, int) (memctrl.Mitigator, error) { return &callCounter{}, nil }}
	refreshOnly := Scheme{Name: "test-refresh-only", Pure: true,
		Build: func(Env, int) (memctrl.Mitigator, error) { return &callCounter{actAtRef: 5}, nil }}
	for _, sc := range []Scheme{counting, refreshOnly} {
		var want stats.RunResult
		withFreshCache(t, func() {
			SetCacheEnabled(false)
			var err error
			if want, err = Run(gridCell("mcf", 0xca11, sc, 1)); err != nil {
				t.Fatal(err)
			}
		})
		withFreshCache(t, func() {
			if _, err := Run(gridCell("mcf", 0xca11, Baseline, 0)); err != nil {
				t.Fatal(err)
			}
			got, err := Run(gridCell("mcf", 0xca11, sc, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: cached result differs from the simulation:\ncached    %+v\nsimulated %+v", sc.Name, got, want)
			}
			st := CacheStats()
			if sc.Name == counting.Name && (st.Replays != 1 || want.StorageBits>>20 == 0 || want.StorageBits&(1<<20-1) == 0) {
				t.Errorf("%s: replays %d, storage %#x; want one replay over activations and refreshes", sc.Name, st.Replays, want.StorageBits)
			}
			if sc.Name == refreshOnly.Name && (st.ReplayFallbacks != 1 || want.NRRs == 0) {
				t.Errorf("%s: fallbacks %d, NRRs %d; want one fallback and an NRR per sub-channel", sc.Name, st.ReplayFallbacks, want.NRRs)
			}
		})
	}
}

// TestGridBatchesMatchOneBatch runs a two-threshold grid one workload at a
// time, as a full-size counter grid is batched to keep its baselines' call
// logs held, and requires the same slowdowns and results as the whole grid
// run in one batch with the cache off. Batched, every scheme cell comes
// right after its baseline, so the quiet cells must replay.
func TestGridBatchesMatchOneBatch(t *testing.T) {
	wls := []string{"mcf", "parest", "triad"}
	trhs := []int{2000, 4000}
	var schemes []Scheme
	for _, name := range []string{"graphene-drfmsb", "para-nrr"} {
		sc, _ := SchemeByName(name)
		schemes = append(schemes, sc)
	}
	o := Options{Seed: 0xba7c}
	var want []gridResult
	withFreshCache(t, func() {
		SetCacheEnabled(false)
		want = slowdownGridsBatched(o, wls, trhs, 4, schemes, 5000, len(wls))
	})
	withFreshCache(t, func() {
		got := slowdownGridsBatched(o, wls, trhs, 4, schemes, 5000, 1)
		for i, trh := range trhs {
			if got[i].err != nil || want[i].err != nil {
				t.Fatalf("T_RH %d: batched err %v, one-batch err %v", trh, got[i].err, want[i].err)
			}
			if !reflect.DeepEqual(got[i].slow, want[i].slow) || !reflect.DeepEqual(got[i].raw, want[i].raw) {
				t.Errorf("T_RH %d: batched grid differs from the one-batch grid:\nbatched   %v\none batch %v", trh, got[i].slow, want[i].slow)
			}
		}
		st := CacheStats()
		t.Logf("%d replayed, %d fell back", st.Replays, st.ReplayFallbacks)
		if st.Replays == 0 {
			t.Error("no scheme cell replayed its baseline's call log")
		}
	})
}
