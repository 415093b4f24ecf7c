package main

// workloads maps each workload name to the function that runs it.
// BENCHMARK.json at the repository root records why each was chosen.
var workloads = map[string]func(*runEnv) (*outcome, error){
	"cold_ols_400k":     runCold,
	"warm_os_20k":       runWarm,
	"serve_ols_ratings": runServe,
}
