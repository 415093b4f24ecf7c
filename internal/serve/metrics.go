package serve

import (
	"fmt"
	"net/http"
	"sync/atomic"

	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// serveStats are the daemon's own health counters, exposed at /metrics
// alongside the aggregated engine telemetry.
type serveStats struct {
	submitted     atomic.Int64 // jobs admitted into the queue
	rejectedQueue atomic.Int64 // 429s from a full admission queue
	rejectedQuota atomic.Int64 // 429s from tenant quota/budget
	completed     atomic.Int64 // jobs finishing with a full result
	failed        atomic.Int64 // jobs ending in error
	cancelled     atomic.Int64 // client cancellations honoured
	suspended     atomic.Int64 // jobs checkpoint-parked by drain
	recovered     atomic.Int64 // jobs re-admitted from disk at startup
	panics        atomic.Int64 // runner panics caught by the shield
	checkpoints   atomic.Int64 // periodic+drain checkpoints saved
	evicted       atomic.Int64 // terminal jobs removed by retention
	distFallbacks atomic.Int64 // dist jobs degraded to the local fallback
}

// aggregateMetrics merges every job's telemetry into one daemon-wide
// snapshot: the evicted jobs' retired total plus each live job. The
// retired total and the job set are read together, so a job evicted
// between scrapes moves from one to the other and no counter falls.
func (s *Server) aggregateMetrics() telemetry.Metrics {
	var agg telemetry.Metrics
	s.mu.Lock()
	addMetrics(&agg, &s.retired)
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		if m := j.liveMetrics(); m != nil {
			addMetrics(&agg, m)
		}
	}
	return agg
}

// addMetrics folds m into agg: counters and histograms sum (they are
// per-job monotone), Workers keeps the widest run seen.
func addMetrics(agg, m *telemetry.Metrics) {
	agg.Workers = max(agg.Workers, m.Workers)
	agg.Trials += m.Trials
	agg.TrialHits += m.TrialHits
	agg.PrepTrials += m.PrepTrials
	agg.EdgesScanned += m.EdgesScanned
	agg.EdgesPruned += m.EdgesPruned
	agg.CandScanned += m.CandScanned
	agg.CandPruned += m.CandPruned
	agg.PrefixFallbacks += m.PrefixFallbacks
	agg.Candidates += m.Candidates
	agg.Audits += m.Audits
	agg.AuditMisses += m.AuditMisses
	agg.Escalations += m.Escalations
	agg.CheckpointSaves += m.CheckpointSaves
	agg.CheckpointRetries += m.CheckpointRetries
	agg.DistLeaseErrors += m.DistLeaseErrors
	agg.DistCompleteErrors += m.DistCompleteErrors
	agg.DistGraphErrors += m.DistGraphErrors
	agg.DistExecErrors += m.DistExecErrors
	agg.DistReconnects += m.DistReconnects
	agg.EventsDropped += m.EventsDropped
	agg.TrialNs.SumNs += m.TrialNs.SumNs
	agg.TrialNs.Count += m.TrialNs.Count
	for len(agg.TrialNs.Counts) < len(m.TrialNs.Counts) {
		agg.TrialNs.Counts = append(agg.TrialNs.Counts, 0)
	}
	for i, c := range m.TrialNs.Counts {
		agg.TrialNs.Counts[i] += c
	}
}

// metricsHandler serves the Prometheus text exposition: the daemon's
// own lifecycle counters first, then the aggregated engine telemetry.
func (s *Server) metricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		st := s.stats
		for _, c := range []struct {
			name, help string
			v          int64
		}{
			{"mpmb_serve_jobs_submitted_total", "Jobs admitted into the queue.", st.submitted.Load()},
			{"mpmb_serve_jobs_rejected_queue_total", "Submissions rejected by a full admission queue.", st.rejectedQueue.Load()},
			{"mpmb_serve_jobs_rejected_quota_total", "Submissions rejected by tenant quotas.", st.rejectedQuota.Load()},
			{"mpmb_serve_jobs_completed_total", "Jobs finishing with a full result.", st.completed.Load()},
			{"mpmb_serve_jobs_failed_total", "Jobs ending in error.", st.failed.Load()},
			{"mpmb_serve_jobs_cancelled_total", "Client cancellations honoured.", st.cancelled.Load()},
			{"mpmb_serve_jobs_suspended_total", "Jobs checkpoint-parked by drain.", st.suspended.Load()},
			{"mpmb_serve_jobs_recovered_total", "Jobs re-admitted from disk at startup.", st.recovered.Load()},
			{"mpmb_serve_runner_panics_total", "Runner panics caught by the isolation shield.", st.panics.Load()},
			{"mpmb_serve_checkpoints_total", "Job checkpoints saved (periodic and drain).", st.checkpoints.Load()},
			{"mpmb_serve_jobs_evicted_total", "Terminal jobs removed by retention.", st.evicted.Load()},
			{"mpmb_serve_dist_fallbacks_total", "Distributed jobs degraded to the in-process fallback.", st.distFallbacks.Load()},
		} {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.v)
		}
		draining := 0
		if s.Draining() {
			draining = 1
		}
		fmt.Fprintf(w, "# HELP mpmb_serve_draining Whether admission has stopped.\n# TYPE mpmb_serve_draining gauge\nmpmb_serve_draining %d\n", draining)
		telemetry.WritePrometheus(w, s.aggregateMetrics())
	})
}
