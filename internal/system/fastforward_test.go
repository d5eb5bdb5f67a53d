package system

import (
	"reflect"
	"testing"

	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/tracker"
)

// runFingerprint captures every externally observable outcome of a run:
// per-core retirement and finish, per-controller scheduling and mitigation
// stats, and device-level command counts. Two runs producing equal
// fingerprints on the same input ran the same simulation.
type runFingerprint struct {
	finish    Tick
	retired   []int64
	coreFin   []Tick
	acts      []uint64
	rowHits   []uint64
	reads     []uint64
	writes    []uint64
	refreshes []uint64
	drfmsbs   []uint64
	drfmabs   []uint64
	nrrs      []uint64
	mits      []uint64
	latency   []Tick
	llcMiss   uint64
}

func fingerprint(sys *System) runFingerprint {
	fp := runFingerprint{finish: sys.FinishTime(), llcMiss: sys.LLC().Misses}
	for _, c := range sys.Cores() {
		fp.retired = append(fp.retired, c.Retired)
		_, ft := c.Finished()
		fp.coreFin = append(fp.coreFin, ft)
	}
	for _, ctrl := range sys.Controllers() {
		dev := ctrl.Device()
		fp.acts = append(fp.acts, ctrl.Activations)
		fp.rowHits = append(fp.rowHits, ctrl.RowHits)
		fp.reads = append(fp.reads, dev.Reads)
		fp.writes = append(fp.writes, dev.Writes)
		fp.refreshes = append(fp.refreshes, dev.Refreshes)
		fp.drfmsbs = append(fp.drfmsbs, dev.DRFMsbs)
		fp.drfmabs = append(fp.drfmabs, dev.DRFMabs)
		fp.nrrs = append(fp.nrrs, dev.NRRs)
		fp.mits = append(fp.mits, dev.MitigationCount)
		fp.latency = append(fp.latency, ctrl.LatencySum)
	}
	return fp
}

// runPARA executes one PARA + DRFMsb run with fast-forward on or off and
// reports its fingerprint and loop iteration count.
func runPARA(t *testing.T, wl string, seed uint64, fastForward bool) (runFingerprint, uint64) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.CtrlCfg.DisableFastForward = !fastForward
	cfg.NewMitigator = func(sub int) memctrl.Mitigator {
		m, err := tracker.NewPARA(0.01, tracker.ModeDRFMsb, sim.NewRNG(uint64(sub+99)))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	sys := run(t, cfg, traces(t, wl, 4, 6000, seed))
	iters, _ := sys.LoopStats()
	return fingerprint(sys), iters
}

// TestFastForwardEquivalence proves the quiescence fast-forward is
// schedule-neutral: with the write-drain certainty condition excluding reads
// from the wake bound, the clock jumps further between iterations, but every
// REF boundary, drain decision, and command issue lands on the identical
// tick. DisableFastForward keeps the conservative bound; both runs must
// produce bit-identical simulations, differing at most in wake-call counts.
func TestFastForwardEquivalence(t *testing.T) {
	for _, wl := range []string{"copy", "omnetpp"} {
		off, offIters := runPARA(t, wl, 123, false)
		on, onIters := runPARA(t, wl, 123, true)
		if !reflect.DeepEqual(off, on) {
			t.Errorf("%s: fast-forward changed the simulation:\noff %+v\non  %+v", wl, off, on)
		}
		if onIters > offIters {
			t.Errorf("%s: fast-forward raised iterations %d -> %d", wl, offIters, onIters)
		}
		if onIters == 0 {
			t.Errorf("%s: LoopStats reported zero iterations", wl)
		}
	}
}
