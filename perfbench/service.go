package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	dream "repro"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/svc"
)

// service-mix: an in-process dreamd behind httptest. Set-up fills a disk
// cache with size.setupKeys /v1/compare results and drops the memory tier;
// each measured round then posts every set-up key once (disk reads) plus a
// quarter as many new keys (simulations that fill the cache), in seeded
// order, from a closed loop of clients() clients.
const (
	svcTRH       = 2000
	svcCores     = 2
	svcSetupReps = 3
)

// svcRequest is one planned /v1/compare request.
type svcRequest struct {
	cfg   dream.Config
	fresh bool
	key   int // set-up key index (hits only)
}

func svcConfig(idx, seed, accesses uint64) dream.Config {
	return dream.Config{
		Workload: gridWorkloads[idx%uint64(len(gridWorkloads))],
		Scheme:   dream.SchemeID(families[idx%uint64(len(families))]),
		TRH:      svcTRH, Cores: svcCores, AccessesPerCore: accesses, Seed: seed,
	}
}

func setupRequests(seed uint64, sz size) []svcRequest {
	reqs := make([]svcRequest, sz.setupKeys)
	for k := range reqs {
		reqs[k] = svcRequest{cfg: svcConfig(uint64(k), mix(seed, 2<<32, uint64(k)), sz.svcAccesses), key: k}
	}
	return reqs
}

// roundRequests plans round r: every set-up key once plus a quarter as
// many new keys, shuffled by the seed. The new keys walk the (workload,
// scheme) combinations in turn, so every round costs about the same.
func roundRequests(seed uint64, r int, sz size) []svcRequest {
	reqs := setupRequests(seed, sz)
	fresh := sz.setupKeys / 4
	for j := 0; j < fresh; j++ {
		reqs = append(reqs, svcRequest{
			cfg:   svcConfig(uint64(r*fresh+j), mix(seed, 4<<32, uint64(r), uint64(j)), sz.svcAccesses),
			fresh: true,
		})
	}
	rng := sim.NewRNG(mix(seed, 3<<32, uint64(r)))
	for i := len(reqs) - 1; i > 0; i-- {
		j := int(rng.Uint64() % uint64(i+1))
		reqs[i], reqs[j] = reqs[j], reqs[i]
	}
	return reqs
}

// reply is the /v1 response envelope.
type reply struct {
	OK        bool            `json:"ok"`
	Deduped   bool            `json:"deduped"`
	CacheHit  bool            `json:"cache_hit"`
	ElapsedMS int64           `json:"elapsed_ms"`
	Result    json.RawMessage `json:"result"`
}

// compareResult is the /v1/compare payload.
type compareResult struct {
	Base   stats.RunResult `json:"base"`
	Scheme stats.RunResult `json:"scheme"`
}

// outcome is one request's client-side record.
type outcome struct {
	status int
	err    error
	lat    time.Duration
	rep    reply
}

// dreamd is one in-process service with its HTTP front end.
type dreamd struct {
	dir    string
	s      *svc.Service
	srv    *httptest.Server
	client *http.Client
}

func startDreamd(tmpRoot string) (*dreamd, error) {
	dir, err := os.MkdirTemp(tmpRoot, "svc-cache-")
	if err != nil {
		return nil, fmt.Errorf("creating cache dir: %w", err)
	}
	s, err := svc.New(svc.Options{Workers: clients(), CacheDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.Start()
	if got := exp.DiskCacheDir(); got != dir {
		s.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, fmt.Errorf("disk cache not attached at %s (got %q)", dir, got)
	}
	srv := httptest.NewServer(s.Handler())
	tr := &http.Transport{MaxConnsPerHost: clients(), MaxIdleConnsPerHost: clients()}
	return &dreamd{dir: dir, s: s, srv: srv, client: &http.Client{Transport: tr, Timeout: time.Minute}}, nil
}

func (d *dreamd) stop() error {
	d.client.CloseIdleConnections()
	d.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.s.Shutdown(ctx)
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// post sends one /v1/compare request and decodes the envelope.
func (d *dreamd) post(cfg dream.Config) outcome {
	body, err := json.Marshal(cfg)
	if err != nil {
		return outcome{err: err}
	}
	t := time.Now()
	resp, err := d.client.Post(d.srv.URL+"/v1/compare", "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{err: err, lat: time.Since(t)}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o := outcome{status: resp.StatusCode, lat: time.Since(t), err: err}
	if err == nil {
		o.err = json.Unmarshal(raw, &o.rep)
	}
	return o
}

// postAll runs reqs in order on a closed loop of clients() clients.
func (d *dreamd) postAll(reqs []svcRequest, done func(i int, o outcome, start time.Time)) []outcome {
	out := make([]outcome, len(reqs))
	parallel(len(reqs), func(i int) {
		t := time.Now()
		out[i] = d.post(reqs[i].cfg)
		if done != nil {
			done(i, out[i], t)
		}
	})
	return out
}

// checkReply verifies one reply. A set-up key's result must be
// byte-identical to the result that filled it; a fresh key's must be the
// comparison it asked for.
func (b *bench) checkReply(req svcRequest, o outcome, filled []json.RawMessage) (compareResult, bool) {
	var cr compareResult
	switch {
	case o.err != nil:
		b.problem("compare %s/%s seed %d: %v", req.cfg.Workload, req.cfg.Scheme, req.cfg.Seed, o.err)
	case o.status != http.StatusOK || !o.rep.OK:
		b.problem("compare %s/%s seed %d: HTTP %d", req.cfg.Workload, req.cfg.Scheme, req.cfg.Seed, o.status)
	case !req.fresh && filled != nil && !bytes.Equal(o.rep.Result, filled[req.key]):
		b.problem("set-up key %d reply differs from the reply that filled it", req.key)
	default:
		if err := json.Unmarshal(o.rep.Result, &cr); err != nil {
			b.problem("compare %s/%s: decoding result: %v", req.cfg.Workload, req.cfg.Scheme, err)
		} else if cr.Base.Scheme != exp.Baseline.Name || cr.Scheme.Scheme != string(req.cfg.Scheme) ||
			cr.Scheme.Workload != req.cfg.Workload || len(cr.Scheme.CoreRetired) != svcCores || cr.Scheme.SimTimeNS <= 0 {
			b.problem("compare %s/%s answered as %s/%s", req.cfg.Workload, req.cfg.Scheme, cr.Scheme.Workload, cr.Scheme.Scheme)
		} else {
			b.op(false)
			return cr, true
		}
	}
	b.op(true)
	return cr, false
}

// svcSetup is service-mix's set-up, repeated into fresh directories: start
// dreamd, fill its disk cache with every set-up key, and drop the memory
// tier. The last repetition's service stays up for the measured phase.
type svcSetup struct {
	d       *dreamd
	filled  []json.RawMessage // each set-up key's result bytes
	results []stats.RunResult // the fills' simulated results, base then scheme
}

func (s *svcSetup) run(b *bench, tmpRoot string, rep int) error {
	if s.d != nil {
		if err := s.d.stop(); err != nil {
			return err
		}
		s.d = nil
	}
	exp.ResetCache()
	d, err := startDreamd(tmpRoot)
	if err != nil {
		return err
	}
	s.d = d
	reqs := setupRequests(b.seed, b.sz)
	outs := d.postAll(reqs, nil)
	exp.ResetCache()
	fill := make([]json.RawMessage, len(outs))
	var res []stats.RunResult
	for i, o := range outs {
		cr, ok := b.checkReply(reqs[i], o, nil)
		if !ok {
			return fmt.Errorf("set-up request %d failed", i)
		}
		fill[i] = o.rep.Result
		res = append(res, cr.Base, cr.Scheme)
		if s.filled != nil && !bytes.Equal(s.filled[i], fill[i]) {
			b.problem("set-up key %d filled differently on set-up repetition %d", i, rep)
		}
	}
	s.filled, s.results = fill, res
	return nil
}

func runServiceMix(b *bench) error {
	tmpRoot := filepath.Join(b.outDir, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", tmpRoot, err)
	}
	var su svcSetup
	setup, err := b.timeSetup(svcSetupReps, func(rep int) error { return su.run(b, tmpRoot, rep) })
	if su.d != nil {
		defer su.d.stop()
	}
	if err != nil {
		return err
	}
	d, filled, setupResults := su.d, su.filled, su.results

	cd := newCacheDelta()
	snap0 := d.s.Snapshot()
	ev0 := exp.SimEvents()
	var (
		reps                  []repStat
		lat, hitLat, missLat  []time.Duration
		serverLat, httpLat    []time.Duration
		simulated             time.Duration
		hits, requests        int
		digestResults         = append([]stats.RunResult(nil), setupResults...)
		tracedWalls, rawWalls []time.Duration
	)
	// A traced run alternates untraced and traced rounds, so it needs two.
	minRounds := 1
	if b.traced {
		minRounds = 2
	}
	phase := time.Now()
	deadline := b.deadline(phase)
	for r := 0; r < minRounds || time.Now().Before(deadline); r++ {
		cd.fold()
		exp.ResetCache() // set-up keys are served from disk again this round
		reqs := roundRequests(b.seed, r, b.sz)
		traced := b.traced && r%2 == 1
		repID := fmt.Sprintf("round%d", r)
		var done func(int, outcome, time.Time)
		if traced {
			done = func(i int, o outcome, start time.Time) {
				b.tr.add(fmt.Sprintf("%s/req%d", repID, i), "http.compare", repID, start, start.Add(o.lat),
					map[string]float64{"server_ms": float64(o.rep.ElapsedMS), "cache_hit": boolf(o.rep.CacheHit),
						"deduped": boolf(o.rep.Deduped), "fresh": boolf(reqs[i].fresh), "status": float64(o.status)})
			}
		}
		m := startMeter()
		outs := d.postAll(reqs, done)
		st := m.stop()
		reps = append(reps, st)
		if b.traced {
			b.tr.add(repID, "round", "", m.t0, m.t0.Add(st.wall), map[string]float64{"traced": boolf(traced)})
			if traced {
				tracedWalls = append(tracedWalls, st.wall)
			} else {
				rawWalls = append(rawWalls, st.wall)
			}
		}
		for i, o := range outs {
			requests++
			cr, ok := b.checkReply(reqs[i], o, filled)
			lat = append(lat, o.lat)
			if ok && r == 0 && reqs[i].fresh {
				digestResults = append(digestResults, cr.Base, cr.Scheme)
			}
			server := time.Duration(o.rep.ElapsedMS) * time.Millisecond
			serverLat = append(serverLat, server)
			httpLat = append(httpLat, o.lat-server)
			if o.rep.CacheHit {
				hits++
			}
			if reqs[i].fresh {
				missLat = append(missLat, o.lat)
				simulated += server
			} else {
				hitLat = append(hitLat, o.lat)
			}
		}
	}
	phaseDur := time.Since(phase)
	cd.fold()
	if dir := exp.DiskCacheDir(); dir != d.dir {
		b.problem("disk tier moved to %q during the measured phase", dir)
	}
	if err := b.checkDigest(digestResults); err != nil {
		return err
	}
	if !b.traced {
		b.reportE2E(setup, reps, requests, phaseDur, lat)
		return nil
	}
	snap := d.s.Snapshot()
	events := exp.SimEvents() - ev0
	b.zeroLayers()
	b.reportSim(setupResults)
	b.reportCache(cd)
	b.set("svc.server_ms.p50", ms(percentile(serverLat, 50)))
	b.set("svc.server_ms.p95", ms(percentile(serverLat, 95)))
	b.set("svc.http_ms.p50", ms(percentile(httpLat, 50)))
	b.set("svc.latency_ms.hit.p50", ms(percentile(hitLat, 50)))
	b.set("svc.latency_ms.miss.p50", ms(percentile(missLat, 50)))
	b.set("svc.cache_hit_ratio", float64(hits)/float64(requests))
	b.set("svc.deduped", float64(snap.Deduped-snap0.Deduped))
	b.set("svc.rejected", float64(snap.RejectedQueue+snap.RejectedBreaker+snap.RejectedDrain-
		snap0.RejectedQueue-snap0.RejectedBreaker-snap0.RejectedDrain))
	b.set("svc.failed", float64(snap.Failed-snap0.Failed))
	b.set("svc.retries", float64(snap.Retries-snap0.Retries))
	b.set("system.self_s", simulated.Seconds())
	b.set("system.events", float64(events))
	if events > 0 {
		b.set("system.ns_per_event", float64(simulated.Nanoseconds())/float64(events))
	}
	b.set("trace.overhead_ratio", medianDur(tracedWalls).Seconds()/medianDur(rawWalls).Seconds())
	b.set("fail_ratio", float64(b.failed)/float64(b.attempted))
	return nil
}

func boolf(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// parallel runs job(i) for every i in [0, n) on clients() goroutines and
// returns once all have finished.
func parallel(n int, job func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
}
