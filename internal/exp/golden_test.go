package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/addrmap"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/workload"
)

// goldenRunsFile holds the committed SHA-256 digests TestGoldenRunDigests
// compares against. There is no update flag: when a change is meant to move
// the simulation, the failing test prints every digest it got, and the new
// table is pasted into this file by hand.
const goldenRunsFile = "testdata/golden_runs.json"

// goldenAttackFamilies names one scheme per tracker family for the audited
// attack runs.
var goldenAttackFamilies = []string{
	"para-drfmsb", "mint-drfmsb", "para-dreamr", "mint-dreamr",
	"graphene-drfmsb", "dreamc-randomized", "abacus", "moat",
	"dapper", "qprac", "prob-hybrid",
}

// goldenWindowScale is the window-scale floor the figure drivers clamp
// short runs to (scaleFromBase). With T_RH 500 it scales counter thresholds
// down far enough that every tracker but Graphene's and MOAT's mitigates
// inside a 4 000-access benign run.
const goldenWindowScale = 1.0 / 128

// quietOnBenign reports whether a scheme's thresholds stay out of reach of
// the short benign runs; the attack runs pin those trackers instead.
func quietOnBenign(name string) bool {
	return strings.HasPrefix(name, "graphene-") || name == "moat"
}

// digestJSON hashes v's JSON encoding.
func digestJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// mitigated reports whether a run issued any mitigation command.
func mitigated(r stats.RunResult) bool {
	return r.Mitigations+r.NRRs+r.DRFMsbs+r.DRFMabs > 0
}

// TestGoldenRunDigests pins the simulator's behaviour with committed digests
// of small uncached runs: every built-in scheme on two workloads, one audited
// double-sided attack per tracker family, and one metrics-on run (its result
// and its metrics report). Any change to the event loop, the controllers,
// the DRAM model or a tracker that alters a single counter moves a digest.
// The scheme runs are repeated through the run cache, each after its
// baseline, and must reproduce the same digests whether they replayed the
// baseline's call log or fell back to simulating.
func TestGoldenRunDigests(t *testing.T) {
	defer SetCacheEnabled(SetCacheEnabled(false))

	got := map[string]string{}
	var builtins []string
	for _, m := range SchemeMetas() {
		if m.Builtin {
			builtins = append(builtins, m.Name)
		}
	}
	for _, wl := range []string{"mcf", "triad"} {
		for _, name := range builtins {
			sc, _ := SchemeByName(name)
			r, err := Run(RunConfig{
				Workload: wl, Cores: 4, AccessesPerCore: 4000, TRH: 500,
				Scheme: sc, Seed: 7, WindowScale: goldenWindowScale,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, wl, err)
			}
			got["run/"+wl+"/"+name] = digestJSON(t, r)
			if name != "base" && !quietOnBenign(name) && !mitigated(r) {
				t.Errorf("%s/%s issued no mitigation: the pin would not cover its tracker", name, wl)
			}
		}
	}

	mapper, err := addrmap.NewMOP4(addrmap.Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range goldenAttackFamilies {
		sc, ok := SchemeByName(name)
		if !ok {
			t.Fatalf("attack family scheme %q is not registered", name)
		}
		atk, err := workload.DoubleSided(mapper, 0, 5, 4000, 20000)
		if err != nil {
			t.Fatal(err)
		}
		traces := []cpu.Trace{atk, workload.IdleTrace{}, workload.IdleTrace{}, workload.IdleTrace{}}
		r, err := Run(RunConfig{
			Workload: "double-sided", Cores: 4, AccessesPerCore: 20000, TRH: 2000,
			Scheme: sc, Seed: 7, WindowScale: 1, Audit: true, SmallLLC: true,
			Traces: traces,
		})
		if err != nil {
			t.Fatalf("attack on %s: %v", name, err)
		}
		got["attack/double-sided/"+name] = digestJSON(t, r)
		if !mitigated(r) || r.MaxVictim == 0 {
			t.Errorf("attack on %s: mitigated=%v max victim %d; the audit pin is vacuous",
				name, mitigated(r), r.MaxVictim)
		}
	}

	// Cached pass: each workload's baseline runs first and records its call
	// log, then every scheme cell replays that log before simulating. A
	// replayed cell returns the baseline's result, so each must still match
	// its committed digest; the quiet Graphene cells must take the replay,
	// and the cells whose trackers act must fall back.
	cached := map[string]string{}
	func() {
		defer SetCacheEnabled(SetCacheEnabled(true))
		ResetCache()
		defer ResetCache()
		for _, wl := range []string{"mcf", "triad"} {
			for _, name := range builtins {
				sc, _ := SchemeByName(name)
				r, err := Run(RunConfig{
					Workload: wl, Cores: 4, AccessesPerCore: 4000, TRH: 500,
					Scheme: sc, Seed: 7, WindowScale: goldenWindowScale,
				})
				if err != nil {
					t.Fatalf("cached %s/%s: %v", name, wl, err)
				}
				cached["run/"+wl+"/"+name] = digestJSON(t, r)
			}
		}
		if st := CacheStats(); st.Replays == 0 || st.ReplayFallbacks == 0 {
			t.Errorf("cached pass: %d replays, %d fallbacks; want at least one of each", st.Replays, st.ReplayFallbacks)
		}
	}()

	var report *obs.Report
	sc, _ := SchemeByName("mint-dreamr")
	r, err := Run(RunConfig{
		Workload: "mcf", Cores: 4, AccessesPerCore: 4000, TRH: 500,
		Scheme: sc, Seed: 7, WindowScale: goldenWindowScale,
		Metrics: &obs.Options{OnReport: func(rep *obs.Report) { report = rep }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if report == nil || len(report.Epochs) == 0 {
		t.Fatal("metrics run delivered no report epochs")
	}
	got["metrics/mcf/mint-dreamr"] = digestJSON(t, r)
	got["metrics-report/mcf/mint-dreamr"] = digestJSON(t, report)
	if got["metrics/mcf/mint-dreamr"] != got["run/mcf/mint-dreamr"] {
		t.Error("metrics-on run differs from the metrics-off run")
	}

	want := map[string]string{}
	raw, err := os.ReadFile(filepath.FromSlash(goldenRunsFile))
	if err == nil {
		err = json.Unmarshal(raw, &want)
	}
	if err != nil {
		t.Errorf("reading %s: %v", goldenRunsFile, err)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var diffs []string
	for _, k := range keys {
		if got[k] != want[k] {
			diffs = append(diffs, fmt.Sprintf("  %s: got %q want %q", k, got[k], want[k]))
		}
		if c, ok := cached[k]; ok && c != want[k] {
			diffs = append(diffs, fmt.Sprintf("  %s (cached, after its baseline): got %q want %q", k, c, want[k]))
		}
	}
	if len(diffs) == 0 {
		return
	}
	table, _ := json.MarshalIndent(got, "", "  ")
	t.Errorf("%d of %d run digests differ from %s:\n%s\ndigests this build produced (paste into %s only if the change is meant to move results):\n%s",
		len(diffs), len(keys), goldenRunsFile, strings.Join(diffs, "\n"), goldenRunsFile, table)
}
