package svc

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	dream "repro"
	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/obs"
)

// Error kinds reported in structured error bodies.
const (
	errValidation = "validation"
	errQueueFull  = "queue_full"
	errBreaker    = "breaker_open"
	errDraining   = "draining"
	errWatchdog   = "watchdog"
	errDeadline   = "deadline"
	errPanic      = "panic"
	errSim        = "sim"
	errCanceled   = "canceled"
	// errPlanMismatch rejects a /v1/campaign whose plan this shard derives
	// differently (schema version, cache key generation, or plan hash):
	// exchanging results across the mismatch would merge incomparable cells.
	errPlanMismatch = "plan_mismatch"
)

// errBody is the structured error every non-2xx response carries.
type errBody struct {
	Kind      string `json:"kind"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
	// RetryAfterMS mirrors the Retry-After header for JSON-only clients.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// response is the envelope of every /v1 endpoint.
type response struct {
	OK bool `json:"ok"`
	// Key identifies the deduplicated request (also the journal entry ID).
	Key string `json:"key,omitempty"`
	// Deduped reports that this call shared another request's flight;
	// CacheHit that the result was served from the run/disk cache.
	Deduped   bool            `json:"deduped,omitempty"`
	CacheHit  bool            `json:"cache_hit,omitempty"`
	ElapsedMS int64           `json:"elapsed_ms"`
	Result    json.RawMessage `json:"result,omitempty"`
	Error     *errBody        `json:"error,omitempty"`
}

// simulateRequest is dream.Config plus the per-request deadline. Metrics
// and cache knobs are server-owned: requests carrying them are rejected.
type simulateRequest struct {
	dream.Config
	TimeoutMS int64 `json:"timeout_ms"`
}

type attackRequest struct {
	dream.AttackConfig
	TimeoutMS int64 `json:"timeout_ms"`
}

// compareResult is the /v1/compare payload.
type compareResult struct {
	Base     dream.Result `json:"base"`
	Scheme   dream.Result `json:"scheme"`
	Slowdown float64      `json:"slowdown"`
}

// Handler returns the full HTTP surface. The /debug/fault endpoint is
// registered only when Options.EnableFaults is set.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("POST /v1/compare", s.handleCompare)
	mux.HandleFunc("POST /v1/attack", s.handleAttack)
	mux.HandleFunc("POST /v1/campaign", s.handleCampaign)
	mux.HandleFunc("GET /v1/schemes", s.handleSchemes)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.opts.EnableFaults {
		mux.HandleFunc("POST /debug/fault", s.handleFault)
	}
	return mux
}

func (s *Service) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req simulateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Config.Metrics != nil || req.Config.CacheDir != "" || req.Config.CacheMaxBytes != 0 {
		writeErr(w, http.StatusBadRequest, &errBody{Kind: errValidation,
			Message: "metrics and cache knobs are server-owned; configure them on dreamd, not per request"})
		return
	}
	if err := req.Config.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, &errBody{Kind: errValidation, Message: err.Error()})
		return
	}
	key := requestKey(ClassSimulate, req.Config)
	s.serve(w, r, ClassSimulate, key, req.TimeoutMS, func(ctx context.Context) (any, error) {
		return dream.SimulateContext(ctx, req.Config)
	})
}

func (s *Service) handleCompare(w http.ResponseWriter, r *http.Request) {
	var req simulateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Config.Metrics != nil || req.Config.CacheDir != "" || req.Config.CacheMaxBytes != 0 {
		writeErr(w, http.StatusBadRequest, &errBody{Kind: errValidation,
			Message: "metrics and cache knobs are server-owned; configure them on dreamd, not per request"})
		return
	}
	if err := req.Config.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, &errBody{Kind: errValidation, Message: err.Error()})
		return
	}
	key := requestKey(ClassCompare, req.Config)
	s.serve(w, r, ClassCompare, key, req.TimeoutMS, func(ctx context.Context) (any, error) {
		base, scheme, slowdown, err := dream.CompareContext(ctx, req.Config)
		if err != nil {
			return nil, err
		}
		return compareResult{Base: base, Scheme: scheme, Slowdown: slowdown}, nil
	})
}

func (s *Service) handleAttack(w http.ResponseWriter, r *http.Request) {
	var req attackRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.AttackConfig.Metrics != nil {
		writeErr(w, http.StatusBadRequest, &errBody{Kind: errValidation,
			Message: "metrics are server-owned; configure them on dreamd, not per request"})
		return
	}
	if err := req.AttackConfig.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, &errBody{Kind: errValidation, Message: err.Error()})
		return
	}
	key := requestKey(ClassAttack, req.AttackConfig)
	s.serve(w, r, ClassAttack, key, req.TimeoutMS, func(ctx context.Context) (any, error) {
		return dream.AttackContext(ctx, req.AttackConfig)
	})
}

// serve runs the request through Do and renders the outcome. Cache-hit
// detection is a best-effort delta of the run cache's hit counters around
// the call — exact for sequential requests, approximate under concurrency.
func (s *Service) serve(w http.ResponseWriter, r *http.Request, class, key string,
	timeoutMS int64, run func(ctx context.Context) (any, error)) {
	before := cacheHits()
	val, elapsed, dedup, err := s.Do(r.Context(), class, key, time.Duration(timeoutMS)*time.Millisecond, run)
	if err != nil {
		status, body := classifyErr(err)
		body.Message = fmt.Sprintf("request %s: %s", key, body.Message)
		if body.RetryAfterMS > 0 {
			w.Header().Set("Retry-After", strconv.FormatInt((body.RetryAfterMS+999)/1000, 10))
		}
		writeErr(w, status, body)
		return
	}
	raw, merr := json.Marshal(val)
	if merr != nil {
		writeErr(w, http.StatusInternalServerError, &errBody{Kind: errSim,
			Message: fmt.Sprintf("encoding result: %v", merr)})
		return
	}
	writeJSON(w, http.StatusOK, response{
		OK: true, Key: key, Deduped: dedup,
		CacheHit:  cacheHits() > before,
		ElapsedMS: elapsed.Milliseconds(),
		Result:    raw,
	})
}

// schemesResponse is the GET /v1/schemes payload: this shard's full scheme
// roster with descriptor metadata. Campaign clients preflight against it so
// cells naming a scheme a shard has never registered are not posted there.
type schemesResponse struct {
	Schemes []exp.SchemeMeta `json:"schemes"`
}

func (s *Service) handleSchemes(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, schemesResponse{Schemes: exp.SchemeMetas()})
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Service) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	type readiness struct {
		Ready bool `json:"ready"`
		// QueueDepth and InFlight report current load so a fan-out client can
		// prefer idle shards; both are informational, not readiness-gating.
		QueueDepth int `json:"queue_depth"`
		InFlight   int `json:"in_flight"`
		// WarmEntries counts journaled completions, i.e. requests a restarted
		// server expects to serve straight from its disk cache.
		WarmEntries int    `json:"warm_entries"`
		CacheDir    string `json:"cache_dir,omitempty"`
	}
	rd := readiness{
		Ready:      s.Ready(),
		QueueDepth: len(s.queue),
		InFlight:   s.InflightCount(),
		CacheDir:   exp.DiskCacheDir(),
	}
	if s.journal != nil {
		rd.WarmEntries = len(s.journal.Entries())
	}
	code := http.StatusOK
	if !rd.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, rd)
}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := s.Snapshot()
	cs := exp.CacheStats()
	ms := []obs.Metric{
		{Name: "dreamd_queue_depth", Help: "Requests waiting in the admission queue.", Type: "gauge", Value: float64(m.QueueDepth)},
		{Name: "dreamd_queue_capacity", Help: "Admission queue depth limit.", Type: "gauge", Value: float64(m.QueueCap)},
		{Name: "dreamd_requests_accepted_total", Help: "Requests admitted to the queue.", Type: "counter", Value: float64(m.Accepted)},
		{Name: "dreamd_requests_deduped_total", Help: "Requests that joined an identical in-flight request.", Type: "counter", Value: float64(m.Deduped)},
		{Name: "dreamd_requests_rejected_total", Help: "Requests shed at admission, by reason.", Type: "counter",
			Labels: map[string]string{"reason": "queue_full"}, Value: float64(m.RejectedQueue)},
		{Name: "dreamd_requests_rejected_total",
			Labels: map[string]string{"reason": "breaker_open"}, Value: float64(m.RejectedBreaker)},
		{Name: "dreamd_requests_rejected_total",
			Labels: map[string]string{"reason": "draining"}, Value: float64(m.RejectedDrain)},
		{Name: "dreamd_requests_completed_total", Help: "Requests that finished, by outcome.", Type: "counter",
			Labels: map[string]string{"outcome": "ok"}, Value: float64(m.Completed)},
		{Name: "dreamd_requests_completed_total",
			Labels: map[string]string{"outcome": "fail"}, Value: float64(m.Failed)},
		{Name: "dreamd_request_panics_total", Help: "Panics isolated at the request boundary.", Type: "counter", Value: float64(m.Panics)},
		{Name: "dreamd_sim_retries_total", Help: "Transient simulation failures retried with a perturbed seed.", Type: "counter", Value: float64(m.Retries)},
		{Name: "dreamd_journal_entries", Help: "Completions recorded in the journal.", Type: "gauge", Value: float64(m.JournalEntries)},
		{Name: "dreamd_cache_run_hits_total", Help: "Run-result cache hits (memory tier).", Type: "counter", Value: float64(cs.RunHits + cs.MitHits)},
		{Name: "dreamd_cache_run_misses_total", Help: "Run-result cache misses (memory tier).", Type: "counter", Value: float64(cs.RunMisses + cs.MitMisses)},
		{Name: "dreamd_cache_disk_hits_total", Help: "Memory misses served by the persistent tier.", Type: "counter", Value: float64(cs.DiskRunHits + cs.DiskMitHits + cs.DiskTraceHits)},
		{Name: "dreamd_cache_replays_total", Help: "Mitigated runs answered by replaying their baseline's call log (no tracker acted).", Type: "counter", Value: float64(cs.Replays)},
		{Name: "dreamd_cache_replay_fallbacks_total", Help: "Call-log replays cut short by a tracker that acted; the run then simulated.", Type: "counter", Value: float64(cs.ReplayFallbacks)},
		{Name: "dreamd_cache_log_bytes", Help: "Bytes of baseline call logs held in memory.", Type: "gauge", Value: float64(cs.LogBytesHeld)},
		{Name: "dreamd_cache_disk_bytes", Help: "Bytes resident in the persistent tier.", Type: "gauge", Value: float64(cs.Disk.BytesHeld)},
		{Name: "dreamd_cache_disk_corrupt_total", Help: "Persistent-tier entries dropped by read-side verification.", Type: "counter", Value: float64(cs.Disk.Corrupt)},
		{Name: "dreamd_inflight_requests", Help: "Distinct flights queued or executing.", Type: "gauge", Value: float64(m.InFlight)},
		{Name: "dreamd_campaigns_total", Help: "Campaign batches accepted on /v1/campaign.", Type: "counter", Value: float64(m.Campaign.Campaigns)},
		{Name: "dreamd_campaigns_active", Help: "Campaign streams currently open.", Type: "gauge", Value: float64(m.Campaign.Active)},
		{Name: "dreamd_campaign_cells_total", Help: "Campaign cells by lifecycle event.", Type: "counter",
			Labels: map[string]string{"event": "planned"}, Value: float64(m.Campaign.CellsPlanned)},
		{Name: "dreamd_campaign_cells_total",
			Labels: map[string]string{"event": "leased"}, Value: float64(m.Campaign.CellsLeased)},
		{Name: "dreamd_campaign_cells_total",
			Labels: map[string]string{"event": "stolen"}, Value: float64(m.Campaign.CellsStolen)},
		{Name: "dreamd_campaign_cells_total",
			Labels: map[string]string{"event": "completed"}, Value: float64(m.Campaign.CellsCompleted)},
		{Name: "dreamd_campaign_cells_total",
			Labels: map[string]string{"event": "failed"}, Value: float64(m.Campaign.CellsFailed)},
		{Name: "dreamd_campaign_cells_total",
			Labels: map[string]string{"event": "cache_served"}, Value: float64(m.Campaign.CellsCacheServed)},
		{Name: "dreamd_campaign_cells_total",
			Labels: map[string]string{"event": "peer_served"}, Value: float64(m.Campaign.CellsPeerServed)},
		{Name: "dreamd_campaign_cell_busy_seconds", Help: "Wall-clock spent executing campaign cells on this shard (completed/busy = shard throughput).", Type: "counter", Value: m.Campaign.CellBusy.Seconds()},
	}
	for _, class := range []string{ClassSimulate, ClassCompare, ClassAttack, ClassCampaign} {
		bm := m.Breakers[class]
		var open float64
		if bm.State != "closed" {
			open = 1
		}
		ms = append(ms,
			obs.Metric{Name: "dreamd_breaker_open", Help: "1 when the class breaker is open or half-open.", Type: "gauge",
				Labels: map[string]string{"class": class}, Value: open},
			obs.Metric{Name: "dreamd_breaker_trips_total", Help: "Times the class breaker tripped open.", Type: "counter",
				Labels: map[string]string{"class": class}, Value: float64(bm.Trips)},
		)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteMetricsText(w, ms)
}

// handleFault arms the harness fault-injection hook (test-only; gated by
// Options.EnableFaults). Body: {"spec":"stall:1:2","step_ms":50}; an empty
// spec disarms. Responds with the number of faults the previous plan fired.
func (s *Service) handleFault(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Spec   string `json:"spec"`
		StepMS int64  `json:"step_ms"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	fired := harness.FiredCount()
	if req.Spec == "" {
		harness.InjectFault(harness.FaultNone, 0, 0)
	} else {
		kind, nth, times, err := harness.ParseFault(req.Spec)
		if err != nil {
			writeErr(w, http.StatusBadRequest, &errBody{Kind: errValidation, Message: err.Error()})
			return
		}
		step := harness.DefaultStallStep
		if req.StepMS > 0 {
			step = time.Duration(req.StepMS) * time.Millisecond
		}
		harness.InjectStall(kind, nth, times, step)
	}
	writeJSON(w, http.StatusOK, map[string]any{"armed": req.Spec, "previously_fired": fired})
}

// classifyErr maps a lifecycle error onto an HTTP status and structured
// body. Watchdog-class failures (simulation watchdog, request deadline) are
// 503 + retryable: the work may succeed when the system is less loaded.
func classifyErr(err error) (int, *errBody) {
	var shed *ShedError
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, &errBody{Kind: errQueueFull, Message: err.Error(),
			Retryable: true, RetryAfterMS: 1000}
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, &errBody{Kind: errDraining, Message: err.Error(),
			Retryable: true, RetryAfterMS: 5000}
	case errors.As(err, &shed):
		return http.StatusServiceUnavailable, &errBody{Kind: errBreaker, Message: err.Error(),
			Retryable: true, RetryAfterMS: shed.RetryAfter.Milliseconds()}
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, &errBody{Kind: errDeadline, Message: err.Error(),
			Retryable: true, RetryAfterMS: 2000}
	case errors.Is(err, context.Canceled):
		// The client went away (or shutdown force-cancelled); 499 is the
		// de-facto "client closed request" status.
		return 499, &errBody{Kind: errCanceled, Message: err.Error()}
	}
	var se *harness.SimError
	if errors.As(err, &se) {
		switch se.Op {
		case harness.OpWatchdog:
			return http.StatusServiceUnavailable, &errBody{Kind: errWatchdog, Message: err.Error(),
				Retryable: true, RetryAfterMS: 2000}
		case harness.OpPanic:
			return http.StatusInternalServerError, &errBody{Kind: errPanic, Message: err.Error()}
		default:
			return http.StatusInternalServerError, &errBody{Kind: errSim, Message: err.Error(),
				Retryable: se.Retryable}
		}
	}
	return http.StatusInternalServerError, &errBody{Kind: errSim, Message: err.Error()}
}

// requestKey derives the dedup/journal key: class plus a short hash of the
// request's canonical JSON (struct field order is deterministic).
func requestKey(class string, cfg any) string {
	b, err := json.Marshal(cfg)
	if err != nil {
		return class + ":unkeyed"
	}
	sum := sha256.Sum256(b)
	return class + "-" + hex.EncodeToString(sum[:8])
}

// cacheHits sums every counter that means "a result was served without
// simulating": memory-tier run/mitigated hits plus disk-tier promotions.
func cacheHits() int64 {
	cs := exp.CacheStats()
	return cs.RunHits + cs.MitHits + cs.DiskRunHits + cs.DiskMitHits
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, &errBody{Kind: errValidation,
			Message: fmt.Sprintf("decoding request: %v", err)})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, body *errBody) {
	writeJSON(w, code, response{OK: false, Error: body})
}
