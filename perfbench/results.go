package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/exp"
	"repro/internal/runcache"
	"repro/internal/stats"
)

// recordedDigests holds, per workload, the digest of every simulated
// RunResult of the first repetition at defaultSeed.
//
//go:embed digests.json
var recordedDigests []byte

// digest fingerprints simulated results in order: SHA-256 over each
// result's versioned JSON encoding.
func digest(results []stats.RunResult) (string, error) {
	h := sha256.New()
	for _, r := range results {
		raw, err := json.Marshal(r)
		if err != nil {
			return "", fmt.Errorf("encoding result for digest: %w", err)
		}
		h.Write(raw)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

// checkDigest compares the first repetition's results against the digest
// recorded for defaultSeed; other seeds only print theirs.
func (b *bench) checkDigest(results []stats.RunResult) error {
	got, err := digest(results)
	if err != nil {
		return err
	}
	b.note("digest of %d simulated results (first repetition): %s", len(results), got)
	b.digest = got
	if b.seed != defaultSeed || b.sz != fullSize {
		return nil
	}
	var want map[string]string
	if err := json.Unmarshal(recordedDigests, &want); err != nil {
		return fmt.Errorf("parsing digests.json: %w", err)
	}
	if want[b.name] != got {
		b.problem("digest at default seed is %s, digests.json records %q", got, want[b.name])
	}
	return nil
}

// noteMitigations prints the mean and the largest mitigation count of one
// repetition's simulations (informational, never gated).
func (b *bench) noteMitigations(op string, results []stats.RunResult, label func(i int) string) {
	var sum uint64
	top := 0
	for i, r := range results {
		sum += r.Mitigations
		if r.Mitigations > results[top].Mitigations {
			top = i
		}
	}
	b.note("mitigations per %s (first repetition): mean %.0f, max %d (%s)",
		op, float64(sum)/float64(len(results)), results[top].Mitigations, label(top))
}

// reportSim sets the simulated-model per-layer metrics from results:
// counts are summed, rates averaged, and security.breaches counts results
// whose most-hammered victim reached 2·T_RH.
func (b *bench) reportSim(results []stats.RunResult) {
	var retired, acts, hits, reads, writes, refs, nrr, drfm, mits, maxVictim, breaches uint64
	var ipc, mpki, readNS, rlp, bw, simNS float64
	var rlpN int
	for _, r := range results {
		for _, n := range r.CoreRetired {
			retired += uint64(n)
		}
		if len(r.CoreIPC) > 0 {
			ipc += r.IPCSum() / float64(len(r.CoreIPC))
		}
		mpki += r.MPKI
		acts += r.Activations
		hits += r.RowHits
		readNS += r.AvgReadNS
		reads += r.Reads
		writes += r.Writes
		refs += r.Refreshes
		nrr += r.NRRs
		drfm += r.DRFMsbs + r.DRFMabs
		mits += r.Mitigations
		if r.DRFMsbs+r.DRFMabs > 0 {
			rlp += r.RLP
			rlpN++
		}
		bw += r.BWUtil
		simNS += r.SimTimeNS
		if r.MaxVictim > maxVictim {
			maxVictim = r.MaxVictim
		}
		if r.Scheme != "base" && r.MaxVictim >= 2*uint64(r.TRH) {
			breaches++
		}
	}
	n := float64(len(results))
	if n == 0 {
		return
	}
	b.set("cpu.retired", float64(retired))
	b.set("cpu.ipc_mean", ipc/n)
	b.set("cache.mpki", mpki/n)
	b.set("memctrl.activations", float64(acts))
	b.set("memctrl.row_hits", float64(hits))
	b.set("memctrl.avg_read_ns", readNS/n)
	b.set("dram.reads", float64(reads))
	b.set("dram.writes", float64(writes))
	b.set("dram.refreshes", float64(refs))
	b.set("dram.nrr", float64(nrr))
	b.set("dram.drfm", float64(drfm))
	b.set("dram.mitigations", float64(mits))
	if rlpN > 0 {
		b.set("dram.rlp", rlp/float64(rlpN))
	}
	b.set("dram.bw_util", bw/n)
	b.set("sim.time_ns", simNS)
	b.set("security.max_victim", float64(maxVictim))
	b.set("security.breaches", float64(breaches))
}

// cacheDelta accumulates run-cache activity across exp.ResetCache calls,
// which zero the memory tier's counters; the disk store's counters are
// cumulative and are differenced instead.
type cacheDelta struct {
	mem      runcache.Stats
	disk0    runcache.Stats
	heldPeak int64
}

func newCacheDelta() *cacheDelta { return &cacheDelta{disk0: exp.CacheStats()} }

// fold adds the memory tier's counters since the last exp.ResetCache; call
// it right before each reset and once at the end.
func (c *cacheDelta) fold() {
	s := exp.CacheStats()
	c.mem.TraceHits += s.TraceHits
	c.mem.TraceMisses += s.TraceMisses
	c.mem.RunHits += s.RunHits
	c.mem.RunMisses += s.RunMisses
	c.mem.MitHits += s.MitHits
	c.mem.MitMisses += s.MitMisses
	c.mem.DiskTraceHits += s.DiskTraceHits
	c.mem.DiskRunHits += s.DiskRunHits
	c.mem.DiskMitHits += s.DiskMitHits
	if s.TraceAccessesHeld > c.heldPeak {
		c.heldPeak = s.TraceAccessesHeld
	}
	c.mem.Disk = s.Disk
}

func (b *bench) reportCache(c *cacheDelta) {
	m, d0 := c.mem, c.disk0.Disk
	b.set("runcache.trace_hits", float64(m.TraceHits))
	b.set("runcache.trace_misses", float64(m.TraceMisses))
	b.set("runcache.run_hits", float64(m.RunHits))
	b.set("runcache.run_misses", float64(m.RunMisses))
	b.set("runcache.mit_hits", float64(m.MitHits))
	b.set("runcache.mit_misses", float64(m.MitMisses))
	b.set("runcache.disk_hits", float64(m.DiskTraceHits+m.DiskRunHits+m.DiskMitHits))
	b.set("runcache.trace_accesses_held", float64(c.heldPeak))
	b.set("diskcache.hits", float64(m.Disk.Hits-d0.Hits))
	b.set("diskcache.misses", float64(m.Disk.Misses-d0.Misses))
	b.set("diskcache.puts", float64(m.Disk.Puts-d0.Puts))
	b.set("diskcache.corrupt", float64(m.Disk.Corrupt-d0.Corrupt))
	b.set("diskcache.errors", float64(m.Disk.Errors-d0.Errors))
	b.set("diskcache.lock_waits", float64(m.Disk.LockWaits-d0.LockWaits))
	b.set("diskcache.bytes_held", float64(m.Disk.BytesHeld))
}

// checkCold enforces the cold-workload invariants: no disk tier, and no
// mitigated run replayed from the memo (which would time a cache lookup
// instead of a simulation).
func (b *bench) checkCold(c *cacheDelta) {
	if dir := exp.DiskCacheDir(); dir != "" {
		b.problem("cold workload has a disk tier attached at %s", dir)
	}
	if c.mem.MitHits != 0 || c.mem.DiskMitHits+c.mem.DiskRunHits+c.mem.DiskTraceHits != 0 {
		b.problem("cold workload replayed %d mitigated runs from the memory tier and %d entries from disk",
			c.mem.MitHits, c.mem.DiskMitHits+c.mem.DiskRunHits+c.mem.DiskTraceHits)
	}
}
