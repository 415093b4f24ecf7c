package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// tenantHeader names the submitting tenant; absent means "default".
const tenantHeader = "X-Tenant"

// apiError is the JSON error envelope every non-2xx answer carries.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, at least 1 — clients must not busy-loop on fractional
// hints.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// routes builds the daemon's HTTP API:
//
//	POST   /v1/jobs              submit (202 + id; 429 when saturated)
//	GET    /v1/jobs              list job statuses, newest first
//	GET    /v1/jobs/{id}         one job's status (live metrics included)
//	GET    /v1/jobs/{id}/events  NDJSON event stream (?from=seq)
//	GET    /v1/jobs/{id}/result  finished result document
//	POST   /v1/jobs/{id}/cancel  request cancellation
//	GET    /healthz              liveness (always 200 while serving)
//	GET    /readyz               readiness (503 while draining)
//	GET    /metrics              Prometheus text exposition
//
// With Config.Dist the coordinator's /dist/v1 lease endpoints mount on
// the same mux, so one listener serves both tenants and workers.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	if s.coord != nil {
		s.coord.Register(mux)
	}
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.Handle("GET /metrics", s.metricsHandler())
	return mux
}

// decodeSpec is the submit path's decoding: strict JSON (unknown fields
// are errors), the paper defaults, then admission validation. Either
// failure is the client's, answered with 400.
func (s *Server) decodeSpec(body io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, fmt.Errorf("decoding job spec: %w", err)
	}
	spec = spec.normalize()
	if err := s.validateSpec(spec); err != nil {
		return JobSpec{}, fmt.Errorf("invalid job spec: %w", err)
	}
	return spec, nil
}

// handleSubmit is the admission path: drain gate, spec validation,
// tenant quota charge, bounded queue. Saturation answers 429 with a
// Retry-After hint and leaves no trace — memory use is bounded by
// QueueDepth no matter how fast clients submit.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.Header().Set("Retry-After", "10")
		writeError(w, http.StatusServiceUnavailable, "draining: not accepting new jobs")
		return
	}
	tenant := r.Header.Get(tenantHeader)
	if tenant == "" {
		tenant = "default"
	}
	spec, err := s.decodeSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	now := time.Now()
	if err := s.quotas.admit(tenant, spec.cost(), now); err != nil {
		s.stats.rejectedQuota.Add(1)
		var qe *quotaError
		if errors.As(err, &qe) {
			w.Header().Set("Retry-After", retryAfterSeconds(qe.retryAfter))
		}
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	}

	id, err := newJobID()
	if err != nil {
		s.quotas.refund(tenant, spec.cost(), now)
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	job := newJob(id, tenant, spec, now)
	if err := s.store.saveManifest(job.manifest()); err != nil {
		s.quotas.refund(tenant, spec.cost(), now)
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	s.mu.Lock()
	s.jobs[id] = job
	s.mu.Unlock()

	if !s.sched.enqueue(job) {
		// Queue full (or drain raced the gate): undo the admission
		// completely — quota, manifest, registry — so a rejected burst
		// leaves no residue.
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		s.store.removeManifest(id)
		s.quotas.refund(tenant, spec.cost(), now)
		s.stats.rejectedQueue.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "admission queue full (%d jobs); retry later", s.cfg.QueueDepth)
		return
	}
	s.stats.submitted.Add(1)
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": string(JobQueued)})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.snapshotJobs()
	docs := make([]statusDoc, 0, len(jobs))
	for _, j := range jobs {
		docs = append(docs, j.status(nil))
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": docs})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.status(j.liveMetrics()))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if !j.requestCancel() {
		writeError(w, http.StatusConflict, "job already %s", j.State())
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": j.ID, "state": "cancelling"})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	data, err := s.store.loadResult(j.ID)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "reading result: %v", err)
		return
	}
	if data == nil {
		writeError(w, http.StatusNotFound, "job is %s: no result yet", j.State())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleEvents streams the job's telemetry events as NDJSON, one
// sequenced record per line, from ?from=seq (default 0) until the job
// finishes or the client disconnects. Events that aged out of the ring
// are skipped — the sequence numbers expose the gap.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	from := int64(0)
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad from=%q", v)
			return
		}
		from = n
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for {
		events, wake, closed := j.events.since(from)
		for _, rec := range events {
			if err := enc.Encode(rec); err != nil {
				return
			}
			from = rec.Seq + 1
		}
		if flusher != nil {
			flusher.Flush()
		}
		if closed {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}
