package main

import (
	"math"
	"os"
	"sort"
	"syscall"
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, on every workload.
// A query is one user request: one mpmb-search process on
// cold_ols_400k, one global plus one anchored Searcher query on
// warm_os_20k, one daemon job from POST to fetched result on
// serve_ols_ratings. peak_rss_mb is the peak RSS of the process that
// runs the system: the mpmb-search child on cold_ols_400k (median over
// queries), the benchmark process itself elsewhere, read after set-up
// and the first 100 jobs on serve_ols_ratings. Inputs are generated in a
// child process so the generator never counts. The timing metrics
// (setup_s, query_s_*, queries_per_s) are scaled to a reference host
// speed measured during the run (see ref.go).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"success_ratio", "ratio"},
	{"query_s_p50", "s"},
	{"query_s_p90", "s"},
	{"queries_per_s", "1/s"},
}

// perLayer lists the metrics a traced run reports, on every workload.
var perLayer = []metricDef{
	{"bigraph.load_s", "s"},
	{"bigraph.load_alloc_mb", "MB"},
	{"core.snapshot_s", "s"},
	{"core.snapshot_alloc_mb", "MB"},
	{"core.prep_s", "s"},
	{"core.candidates", "count"},
	{"core.os_ns_per_trial", "ns"},
	{"core.os_allocs_per_trial", "count"},
	{"core.edges_scanned_per_trial", "count"},
	{"core.edge_prune_ratio", "ratio"},
	{"core.prefix_fallback_ratio", "ratio"},
	{"core.anchored_ns_per_trial", "ns"},
	{"core.anchored_allocs_per_trial", "count"},
	{"core.estimator_ns_per_trial", "ns"},
	{"core.cand_prune_ratio", "ratio"},
	{"mpmb.dispatch_overhead_ratio", "ratio"},
	{"serve.submit_s_p50", "s"},
	{"serve.queue_wait_s_p50", "s"},
	{"serve.queue_wait_s_p90", "s"},
	{"serve.run_s_p50", "s"},
	{"serve.notify_s_p50", "s"},
	{"serve.result_s_p50", "s"},
	{"serve.rejected_ratio", "ratio"},
	{"serve.prep_reuse_ratio", "ratio"},
	{"telemetry.observer_overhead_ratio", "ratio"},
	{"unaccounted_s", "s"},
	{"trace_overhead_ratio", "ratio"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// successRatio is 1 − failed/attempted.
func successRatio(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return 1 - float64(failed)/float64(attempted)
}

// selfPeakRSSMB is this process's peak resident set size.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// childPeakRSSMB is a finished child's peak resident set size.
func childPeakRSSMB(ps *os.ProcessState) float64 {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}
