package main

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"time"

	dream "repro"
	"repro/internal/exp"
)

// attack-audit: double-sided and circular Rowhammer patterns against every
// family with the security auditor on, a small LLC, and mcf co-runners on
// the other cores. Explicit attack traces bypass the run cache.
const (
	attackTRH   = 2000
	attackCores = 4
)

var attackKinds = []dream.AttackKind{dream.AttackDoubleSided, dream.AttackCircular}

// attack is one planned attack of a round.
type attack struct {
	family string
	cfg    dream.AttackConfig
}

func planAttacks(seed, acts uint64) []attack {
	var out []attack
	for _, f := range families {
		for _, k := range attackKinds {
			out = append(out, attack{family: f, cfg: dream.AttackConfig{
				Kind: k, Scheme: dream.SchemeID(f), TRH: attackTRH, Acts: acts,
				Cores: attackCores, Victims: "mcf", Seed: mix(seed, uint64(len(out))),
			}})
		}
	}
	return out
}

// tracedPrefix names the registered timing twin of each family.
const tracedPrefix = "perfbench-traced-"

// tracedAttacks registers, once per process, a timing twin of every family:
// the same descriptor with its Build wrapped in a timed mitigator. The
// attack seed selects which run's layerTimes a build reports into.
var tracedAttacks struct {
	once sync.Once
	err  error
	mu   sync.Mutex
	runs map[uint64]*layerTimes
}

func registerTracedSchemes() error {
	tracedAttacks.once.Do(func() {
		tracedAttacks.runs = make(map[uint64]*layerTimes)
		times := func(env exp.Env) *layerTimes {
			tracedAttacks.mu.Lock()
			defer tracedAttacks.mu.Unlock()
			if l, ok := tracedAttacks.runs[env.Seed]; ok {
				return l
			}
			return &layerTimes{} // a salted retry: timed, but not attributed
		}
		for _, f := range families {
			d, ok := exp.DescriptorFor(f)
			if !ok {
				tracedAttacks.err = fmt.Errorf("scheme %q is not registered", f)
				return
			}
			d.Build = timedBuild(d.Build, times)
			if err := exp.Register(tracedPrefix+f, d); err != nil {
				tracedAttacks.err = err
				return
			}
		}
	})
	return tracedAttacks.err
}

// attackSetup resolves and validates the plan and warms the process with
// one short attack.
func attackSetup(b *bench, rep int) error {
	for _, a := range planAttacks(b.seed, b.sz.attackActs) {
		if err := a.cfg.Validate(); err != nil {
			return fmt.Errorf("planned attack: %w", err)
		}
	}
	warm := planAttacks(mix(b.seed, 1<<32, uint64(rep)), b.sz.attackActs)[0].cfg
	warm.Acts = 20_000
	if _, err := dream.AttackContext(context.Background(), warm); err != nil {
		return fmt.Errorf("warm-up attack: %w", err)
	}
	exp.ResetCache()
	return nil
}

// checkAttack verifies one attack result: it ran the requested scheme and
// no protected scheme let a victim reach the breach threshold.
func (b *bench) checkAttack(a attack, r dream.AttackResult, err error) {
	switch {
	case err != nil:
		b.problem("attack %s/%s seed %d: %v", a.family, a.cfg.Kind, a.cfg.Seed, err)
	case r.Breached:
		b.problem("attack %s/%s seed %d breached: max victim %d >= 2*T_RH", a.family, a.cfg.Kind, a.cfg.Seed, r.MaxVictim)
	case r.MaxVictim == 0 || r.Activations == 0:
		b.problem("attack %s/%s seed %d audited nothing", a.family, a.cfg.Kind, a.cfg.Seed)
	default:
		b.op(false)
		return
	}
	b.op(true)
}

// execAttacks runs one round, one attack at a time.
func execAttacks(as []attack, scheme func(attack) dream.SchemeID, done func(i int, start, end time.Time)) ([]dream.AttackResult, []error, []time.Duration) {
	res := make([]dream.AttackResult, len(as))
	errs := make([]error, len(as))
	lat := make([]time.Duration, len(as))
	for i := range as {
		cfg := as[i].cfg
		cfg.Scheme = scheme(as[i])
		t := time.Now()
		res[i], errs[i] = dream.AttackContext(context.Background(), cfg)
		end := time.Now()
		lat[i] = end.Sub(t)
		if done != nil {
			done(i, t, end)
		}
	}
	return res, errs, lat
}

func runAttackAudit(b *bench) error {
	if b.traced {
		if err := registerTracedSchemes(); err != nil {
			return err
		}
	}
	setup, err := b.timeSetup(setupReps, func(rep int) error { return attackSetup(b, rep) })
	if err != nil {
		return err
	}
	cd := newCacheDelta()
	var (
		reps                []repStat
		lat                 []time.Duration
		first               []dream.AttackResult
		firstPlan           []attack
		tracedWall, rawWall time.Duration
		sums                layerSums
		events              int64
	)
	plain := func(a attack) dream.SchemeID { return a.cfg.Scheme }
	phase := time.Now()
	deadline := b.deadline(phase)
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		as := planAttacks(mix(b.seed, uint64(rep)), b.sz.attackActs)
		exp.ResetCache()
		m := startMeter()
		res, errs, l := execAttacks(as, plain, nil)
		st := m.stop()
		cd.fold()
		for i, a := range as {
			b.checkAttack(a, res[i], errs[i])
		}
		reps = append(reps, st)
		lat = append(lat, l...)
		if rep == 0 {
			first, firstPlan = res, as
		}
		if !b.traced {
			continue
		}
		rawWall += st.wall
		repID := fmt.Sprintf("rep%d", rep)
		b.tr.add(repID+"/untraced", "attacks", "", m.t0, m.t0.Add(st.wall), nil)

		// Traced pass: the same attacks against each family's timing twin.
		runs := make([]*layerTimes, len(as))
		tracedAttacks.mu.Lock()
		for i, a := range as {
			runs[i] = &layerTimes{}
			tracedAttacks.runs[a.cfg.Seed] = runs[i]
		}
		tracedAttacks.mu.Unlock()
		ev0 := exp.SimEvents()
		t0 := time.Now()
		tres, terrs, _ := execAttacks(as, func(a attack) dream.SchemeID {
			return dream.SchemeID(tracedPrefix + a.family)
		}, func(i int, start, end time.Time) {
			b.tr.add(fmt.Sprintf("%s/attack%d", repID, i), "dream.AttackContext", repID, start, end, runs[i].attrs())
			sums.addRun(as[i].family, end.Sub(start), runs[i])
		})
		tracedWall += time.Since(t0)
		events += int64(exp.SimEvents() - ev0)
		b.tr.add(repID+"/traced", "attacks", "", t0, time.Now(), nil)
		tracedAttacks.mu.Lock()
		for _, a := range as {
			delete(tracedAttacks.runs, a.cfg.Seed)
		}
		tracedAttacks.mu.Unlock()
		for i, a := range as {
			if terrs[i] == nil {
				tr, ur := tres[i], res[i]
				tr.Scheme, ur.Scheme = "", ""
				if !reflect.DeepEqual(tr, ur) {
					terrs[i] = fmt.Errorf("traced result differs from the untraced attack")
				}
			}
			b.checkAttack(a, tres[i], terrs[i])
		}
	}
	phaseDur := time.Since(phase)
	b.checkCold(cd)
	results := make([]dream.Result, len(first))
	for i, r := range first {
		results[i] = r.Result
	}
	if err := b.checkDigest(results); err != nil {
		return err
	}
	b.noteMitigations("attack", results, func(i int) string {
		return firstPlan[i].family + " " + string(firstPlan[i].cfg.Kind)
	})
	if !b.traced {
		b.reportE2E(setup, reps, len(lat), phaseDur, lat)
		return nil
	}
	b.zeroLayers()
	b.reportSim(results)
	b.reportCache(cd)
	b.reportLayers(&sums, tracedWall, uint64(events))
	b.set("trace.overhead_ratio", tracedWall.Seconds()/rawWall.Seconds())
	b.set("fail_ratio", float64(b.failed)/float64(b.attempted))
	return nil
}
