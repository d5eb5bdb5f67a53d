package dream

// Facade API tests for the context-aware entry points, Config/AttackConfig
// validation, and the versioned JSON surface.

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/stats"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error; "" = valid
	}{
		{"zero-config defaults", Config{}, ""},
		{"zero TRH is default-me", Config{Workload: "xz", Scheme: DreamRMINT}, ""},
		{"tiny TRH", Config{TRH: 2}, "TRH"},
		{"negative window", Config{WindowScale: -0.5}, "WindowScale"},
		{"window above 1", Config{WindowScale: 1.5}, "WindowScale"},
		{"negative cores", Config{Cores: -1}, "Cores"},
		{"absurd cores", Config{Cores: 1 << 10}, "Cores"},
		{"max cores", Config{Cores: exp.MaxCores}, ""},
		{"cores past max", Config{Cores: exp.MaxCores + 1}, "Cores"},
		{"max accesses", Config{AccessesPerCore: exp.MaxAccesses}, ""},
		{"accesses past max", Config{AccessesPerCore: exp.MaxAccesses + 1}, "AccessesPerCore"},
		{"unknown scheme", Config{Scheme: "bogus"}, "unknown scheme"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want mention of %q", c.name, err, c.want)
		}
	}
}

func TestSimulateContextCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SimulateContext(ctx, Config{Workload: "xz", Scheme: DreamRMINT})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSimulateContextCancelMidRun(t *testing.T) {
	// Cancel from inside the run: the first mitigation event fires the
	// cancel, and the simulation must abort at its next progress check
	// instead of running the remaining accesses.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := SimulateContext(ctx, Config{
		Workload: "mcf", Scheme: DreamRMINT, TRH: 100, Cores: 2,
		AccessesPerCore: 200_000, Seed: 3,
		Metrics: &MetricsOptions{OnEvent: func(MetricsEvent) { cancel() }},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (res %v), want context.Canceled", err, res.IPCSum())
	}
}

// TestCompareContextMatchesSequential checks that the concurrent baseline
// and scheme runs of CompareContext equal the same two runs made one after
// the other through SimulateContext.
func TestCompareContextMatchesSequential(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Workload: "bc", Scheme: PARADRFMab, TRH: 500,
		Cores: 2, AccessesPerCore: 6000, Seed: 2}
	baseCfg := cfg
	baseCfg.Scheme = Unprotected
	base1, err := SimulateContext(ctx, baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := SimulateContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	slow1 := stats.Slowdown(base1, res1)
	base2, res2, slow2, err := CompareContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := base1.Diff(base2); len(d) != 0 {
		t.Errorf("baselines differ: %v", d)
	}
	if d := res1.Diff(res2); len(d) != 0 {
		t.Errorf("scheme results differ: %v", d)
	}
	if slow1 != slow2 {
		t.Errorf("slowdowns differ: %v vs %v", slow1, slow2)
	}
}

func TestAttackConfigValidate(t *testing.T) {
	if err := (AttackConfig{Kind: "warbling"}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "attack kind") {
		t.Errorf("bad kind: %v", err)
	}
	if err := (AttackConfig{Kind: AttackDoubleSided, Cores: -2}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "Cores") {
		t.Errorf("bad cores: %v", err)
	}
	if err := (AttackConfig{Kind: AttackCircular, Scheme: DreamRMINT}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := (AttackConfig{Kind: AttackDoubleSided, Acts: exp.MaxAccesses, Cores: exp.MaxCores}).Validate(); err != nil {
		t.Errorf("attack at the size limits rejected: %v", err)
	}
	if err := (AttackConfig{Kind: AttackDoubleSided, Acts: exp.MaxAccesses + 1}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "Acts") {
		t.Errorf("acts past the limit: %v", err)
	}
	if err := (AttackConfig{Kind: AttackDoubleSided, Cores: exp.MaxCores + 1}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "Cores") {
		t.Errorf("cores past the limit: %v", err)
	}
}

func TestAttackRespectsCores(t *testing.T) {
	res, err := AttackContext(context.Background(), AttackConfig{
		Kind: AttackDoubleSided, Scheme: Unprotected, TRH: 1000,
		Acts: 30_000, Cores: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CoreIPC) != 2 {
		t.Errorf("machine has %d cores, want the configured 2", len(res.CoreIPC))
	}
}

func TestAttackResultJSONKeepsBreached(t *testing.T) {
	r := AttackResult{Breached: true}
	r.Scheme = "base"
	r.Activations = 42
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m["breached"] != true {
		t.Errorf("breached missing from %s", b)
	}
	if m["schema_version"] != float64(1) || m["activations"] != float64(42) {
		t.Errorf("embedded versioned encoding lost: %s", b)
	}
}
