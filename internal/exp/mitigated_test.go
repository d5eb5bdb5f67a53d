package exp

import (
	"reflect"
	"testing"

	"repro/internal/tracker"
)

// TestSimEventsAccumulate pins the -perfstats counter contract: a run that
// actually simulates adds its event-loop events to SimEvents, and a
// cache-served repeat adds nothing (no simulation happened).
func TestSimEventsAccumulate(t *testing.T) {
	withFreshCache(t, func() {
		cfg := smallCfg(Baseline)
		before := SimEvents()
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		afterMiss := SimEvents()
		if afterMiss <= before {
			t.Fatalf("simulated run added no events: before %d, after %d", before, afterMiss)
		}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		if afterHit := SimEvents(); afterHit != afterMiss {
			t.Errorf("cache hit added events: %d -> %d", afterMiss, afterHit)
		}
	})
}

// TestMitigatedRunsDeterministic is the run-level acceptance test for the
// rowtable conversion: for every scheme whose tracker moved off Go maps
// (Graphene's CAM, MOAT's PRAC counters) plus the audited/characterised
// controller paths, repeated runs, cache-disabled runs, and the
// flat-scheduler reference must all produce bit-identical RunResults.
func TestMitigatedRunsDeterministic(t *testing.T) {
	cases := []struct {
		name string
		cfg  RunConfig
	}{
		{"graphene", func() RunConfig {
			c := smallCfg(GrapheneWith(tracker.ModeDRFMsb))
			return c
		}()},
		{"graphene-nrr-audit", func() RunConfig {
			c := smallCfg(GrapheneWith(tracker.ModeNRR))
			c.Audit = true
			return c
		}()},
		{"moat", func() RunConfig {
			c := smallCfg(MOAT())
			return c
		}()},
		{"base-audit-characterize", func() RunConfig {
			c := smallCfg(Baseline)
			c.Audit = true
			c.Characterize = true
			return c
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			withFreshCache(t, func() {
				first, err := Run(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				again, err := Run(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(first, again) {
					t.Errorf("repeat run differs:\nfirst %+v\nagain %+v", first, again)
				}

				SetCacheEnabled(false)
				uncached, err := Run(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(first, uncached) {
					t.Errorf("uncached run differs:\ncached   %+v\nuncached %+v", first, uncached)
				}

				legacy := tc.cfg
				legacy.legacySched = true
				flat, err := Run(legacy)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(first, flat) {
					t.Errorf("flat-scheduler run differs:\nbanked %+v\nflat   %+v", first, flat)
				}

				// Sanity: these runs must actually exercise the structures
				// under test, or the equivalence is vacuous.
				if tc.cfg.Scheme.Build != nil && first.Mitigations == 0 && first.NRRs == 0 {
					t.Logf("note: %s produced no mitigations at this trace length", tc.name)
				}
				if tc.cfg.Characterize && first.RowsTouched == 0 {
					t.Error("characterisation run touched no rows")
				}
				if tc.cfg.Audit && first.MaxVictim == 0 {
					t.Error("audited run recorded no victim damage")
				}
			})
		})
	}
}
