package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds
// since the tracer's origin; Parent is the causing span's ID (-1 for
// none) and Query the query the span belongs to (-1 for set-up and layer
// probes). Trials, when set, is the trial count the call ran.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
	Trials int    `json:"trials,omitempty"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans and counter samples in memory until the run ends.
// A nil tracer records nothing, so untraced runs pay only a nil check.
type tracer struct {
	origin time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string][]float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), counts: make(map[string][]float64)}
}

// record stores a span measured by the caller and returns its ID.
func (t *tracer) record(name string, start, end time.Time, parent, query, trials int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
		Parent: parent, Query: query, Trials: trials,
	})
	return id
}

// timed runs f inside a span of its own, outside any query.
func (t *tracer) timed(name string, trials int, f func()) {
	start := time.Now()
	f()
	t.record(name, start, time.Now(), -1, -1, trials)
}

// count adds one sample of a counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] = append(t.counts[name], v)
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans  []span               `json:"spans"`
		Counts map[string][]float64 `json:"counts"`
	}{t.spans, t.counts})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Span names the workloads and probes record. A "query" span is one
// traced user request; its children are the layer calls it made.
const (
	spanQuery      = "query"
	spanLoad       = "bigraph.load"
	spanSnapshot   = "core.snapshot"
	spanPrep       = "core.prep"
	spanEstimator  = "core.estimator"
	spanOS         = "core.os"
	spanOSDirect   = "core.os_direct"
	spanOSObserved = "telemetry.os_observed"
	spanAnchored   = "core.anchored"
	spanJob        = "serve.job"
	spanSubmit     = "serve.submit"
	spanQueueWait  = "serve.queue_wait"
	spanRun        = "serve.run"
	spanNotify     = "serve.notify"
	spanResult     = "serve.result"
	// countUntraced holds the times of queries that run the traced code
	// with tracing off; countUserPath the times of the untraced queries
	// the end-to-end metrics time. They differ only on cold_ols_400k,
	// whose traced child stands in for the mpmb-search CLI.
	countUntraced   = "query.untraced_s"
	countUserPath   = "query.user_path_s"
	countRejected   = "serve.rejected"
	countPrepReused = "serve.prep_reused"
)

// seconds returns the durations of every span with the given name.
func (t *tracer) seconds(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// nsPerTrial returns, for every span with the given name, its duration
// divided by its trial count.
func (t *tracer) nsPerTrial(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Trials > 0 {
			out = append(out, float64(s.End-s.Start)/float64(s.Trials))
		}
	}
	return out
}

// covered returns, for every query span, the time its direct children
// cover: the union of their intervals, clipped to the query's. Layer
// spans may overlap — a daemon job can start before its submit call
// returns — so their sum would overstate the cover.
func (t *tracer) covered() []float64 {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var out []float64
	for _, q := range t.spans {
		if q.Name != spanQuery {
			continue
		}
		ks := kids[q.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		var total int64
		reach := q.Start
		for _, k := range ks {
			start, end := max(k.Start, reach), min(k.End, q.End)
			if end > start {
				total += end - start
				reach = end
			}
		}
		out = append(out, float64(total)/1e9)
	}
	return out
}

// layerMetrics derives the per-layer metrics from the recorded spans and
// counters. A metric without samples comes out NaN, which the report
// rejects.
func (t *tracer) layerMetrics() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.counts
	m := map[string]float64{
		"bigraph.load_s":                    median(t.seconds(spanLoad)),
		"bigraph.load_alloc_mb":             median(c["bigraph.load_alloc_mb"]),
		"core.snapshot_s":                   median(t.seconds(spanSnapshot)),
		"core.snapshot_alloc_mb":            median(c["core.snapshot_alloc_mb"]),
		"core.prep_s":                       median(t.seconds(spanPrep)),
		"core.candidates":                   median(c["core.candidates"]),
		"core.os_ns_per_trial":              median(t.nsPerTrial(spanOS)),
		"core.os_allocs_per_trial":          median(c["core.os_allocs_per_trial"]),
		"core.edges_scanned_per_trial":      median(c["core.edges_scanned_per_trial"]),
		"core.edge_prune_ratio":             median(c["core.edge_prune_ratio"]),
		"core.prefix_fallback_ratio":        median(c["core.prefix_fallback_ratio"]),
		"core.anchored_ns_per_trial":        median(t.nsPerTrial(spanAnchored)),
		"core.anchored_allocs_per_trial":    median(c["core.anchored_allocs_per_trial"]),
		"core.estimator_ns_per_trial":       median(t.nsPerTrial(spanEstimator)),
		"core.cand_prune_ratio":             median(c["core.cand_prune_ratio"]),
		"mpmb.dispatch_overhead_ratio":      median(c["mpmb.dispatch_overhead_ratio"]),
		"serve.submit_s_p50":                median(t.seconds(spanSubmit)),
		"serve.queue_wait_s_p50":            median(t.seconds(spanQueueWait)),
		"serve.queue_wait_s_p90":            quantile(t.seconds(spanQueueWait), 0.9),
		"serve.run_s_p50":                   median(t.seconds(spanRun)),
		"serve.notify_s_p50":                median(t.seconds(spanNotify)),
		"serve.result_s_p50":                median(t.seconds(spanResult)),
		"serve.rejected_ratio":              mean(c[countRejected]),
		"serve.prep_reuse_ratio":            mean(c[countPrepReused]),
		"telemetry.observer_overhead_ratio": median(c["telemetry.observer_overhead_ratio"]),
		"unaccounted_s":                     median(c[countUserPath]) - median(t.covered()),
		"trace_overhead_ratio":              median(t.seconds(spanQuery))/median(c[countUntraced]) - 1,
	}
	return m
}

// mean is the arithmetic mean of xs; NaN for no samples.
func mean(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}
