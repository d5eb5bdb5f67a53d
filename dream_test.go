package dream

import (
	"context"
	"testing"
)

func TestSchemesAllSimulate(t *testing.T) {
	// Every built-in scheme must run a small configuration end to end.
	for _, id := range Schemes() {
		res, err := SimulateContext(context.Background(), Config{
			Workload:        "xz",
			Scheme:          id,
			TRH:             2000,
			Cores:           2,
			AccessesPerCore: 2000,
			Seed:            1,
		})
		if err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		if res.IPCSum() <= 0 {
			t.Errorf("%s: IPC sum %v", id, res.IPCSum())
		}
	}
}

func TestUnknownScheme(t *testing.T) {
	if _, err := SimulateContext(context.Background(), Config{Workload: "xz", Scheme: "bogus"}); err == nil {
		t.Error("unknown scheme should fail")
	}
}

func TestCompareReportsSlowdown(t *testing.T) {
	base, res, slowdown, err := CompareContext(context.Background(), Config{
		Workload:        "bc",
		Scheme:          PARADRFMab,
		TRH:             500,
		Cores:           4,
		AccessesPerCore: 6000,
		Seed:            2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if (base.IPCSum() <= res.IPCSum()) != (slowdown <= 0) {
		t.Errorf("inconsistent slowdown %v (base %v, scheme %v)", slowdown, base.IPCSum(), res.IPCSum())
	}
	if slowdown <= 0 {
		t.Errorf("PARA+DRFMab at 500 should cost something, got %v", slowdown)
	}
}

func TestAttackFacade(t *testing.T) {
	// The unprotected baseline must breach; DREAM-R must not.
	unprot, err := AttackContext(context.Background(), AttackConfig{
		Kind: AttackDoubleSided, Scheme: Unprotected, TRH: 1000, Acts: 60_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !unprot.Breached {
		t.Errorf("unprotected run must breach: max victim %d", unprot.MaxVictim)
	}
	prot, err := AttackContext(context.Background(), AttackConfig{
		Kind: AttackDoubleSided, Scheme: DreamRMINT, TRH: 1000, Acts: 60_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if prot.Breached {
		t.Errorf("DREAM-R breached: max victim %d", prot.MaxVictim)
	}
	if prot.Mitigations == 0 {
		t.Error("DREAM-R performed no mitigations under attack")
	}
}

func TestAnalysisFacade(t *testing.T) {
	var a Analysis
	if inv := 1 / a.RevisedPARAProb(2000); inv < 84 || inv > 86 {
		t.Errorf("revised p = 1/%.1f", inv)
	}
	if a.RevisedMINTWindow(2000) != 97 {
		t.Error("revised W wrong")
	}
	if kb := a.DreamCKBPerBank(500); kb < 0.8 || kb > 1.4 {
		t.Errorf("DreamC storage = %v", kb)
	}
	if a.RMAQImpact(25) < 30 {
		t.Error("RMAQ impact at W=25 should be ~36")
	}
}

func TestWorkloadsExposed(t *testing.T) {
	if len(Workloads()) != 22 {
		t.Errorf("workloads = %d", len(Workloads()))
	}
}

func init() {
	MustRegisterScheme("facade-test-none", SchemeDescriptor{
		Build: func(SchemeEnv, int) (Mitigator, error) { return noneMit{}, nil },
	})
}

// TestSimulateCustom runs a user-written Mitigator end to end: registered
// under a name (in init), then simulated like a built-in.
func TestSimulateCustom(t *testing.T) {
	res, err := SimulateContext(context.Background(), Config{
		Workload: "xz", Scheme: "facade-test-none", Cores: 2, AccessesPerCore: 2000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.IPCSum() <= 0 {
		t.Error("custom run produced no IPC")
	}
}

// noneMit is a minimal custom Mitigator for the facade test.
type noneMit struct{}

func (noneMit) Name() string                                       { return "none-custom" }
func (noneMit) OnActivate(now Tick, bank int, row uint32) Decision { return Decision{} }
func (noneMit) OnSampled(now Tick, bank int, row uint32)           {}
func (noneMit) OnMitigations(now Tick, mits []Mitigation)          {}
func (noneMit) OnRefresh(now Tick, refIndex uint64) []Op           { return nil }
func (noneMit) StorageBits() int64                                 { return 0 }
