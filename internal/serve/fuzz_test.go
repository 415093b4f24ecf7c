package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"github.com/uncertain-graphs/mpmb/internal/core"
)

// FuzzJobSpec feeds arbitrary bytes through the submit path's decoding
// (decodeSpec: strict JSON, normalize, validateSpec) and pins what
// admission promises the scheduler: every input is either refused as a
// client error or yields a spec whose engine options — as the scheduler
// builds them, locally or with a distributed executor — pass mpmb's own
// validation, at a finite, non-negative trial cost. A spec the daemon
// would admit and then fail on its options must not exist. No job runs.
func FuzzJobSpec(f *testing.F) {
	graphs := f.TempDir()
	writeFigure1(f, graphs, "fig1.graph")
	srv, err := New(Config{GraphRoot: graphs, StateDir: f.TempDir(), MaxTrials: 50_000, CheckpointEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })

	for _, spec := range []map[string]any{
		// Admitted in the serve tests.
		{"graph": "fig1.graph", "method": "os", "trials": 20_000, "seed": 1},
		{"graph": "fig1.graph", "method": "os", "trials": 4000, "seed": 7, "anchor_l": 0, "top_k": 3},
		{"graph": "fig1.graph", "method": "ols", "trials": 4000, "audit_every": 500},
		{"graph": "fig1.graph", "method": "ols", "trials": 4000, "communities_l": []int{0, 0}, "communities_r": []int{0, 0, 0}},
		{"graph": "fig1.graph", "method": "ols-kl", "trials": 3000, "mu": 0.1, "workers": 2, "deadline_ms": 50},
		{"graph": "fig1.graph", "method": "ols", "trials": 1000, "anchor_edge": map[string]int{"u": 0, "v": 1}, "adaptive_prep": true},
		{"graph": "fig1.graph", "method": "mc-vp", "trials": 1000, "epsilon": 0.01, "stall_timeout_ms": 1000},
		{"graph": "fig1.graph", "method": "exact"},
		// Refused in the serve tests.
		{"graph": "../fig1.graph", "trials": 1000},
		{"graph": "/etc/passwd", "trials": 1000},
		{"graph": "nope.graph", "trials": 1000},
		{"graph": "fig1.graph", "trials": 60_000},
		{"graph": "fig1.graph", "trials": -1},
		{"graph": "fig1.graph", "method": "bogus", "trials": 1000},
		{"graph": "fig1.graph", "trials": 1000, "anchor_l": 0, "anchor_r": 1},
		{"graph": "fig1.graph", "method": "mc-vp", "trials": 1000, "anchor_l": 0},
		{"graph": "fig1.graph", "method": "os", "trials": 1000, "adaptive_prep": true},
		{"graph": "fig1.graph", "method": "mc-vp", "trials": 1000, "workers": 4},
	} {
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, raw := range []string{
		``, `null`, `[]`, `{`, `{"graph":"fig1.graph","surprise":1}`,
		`{"graph":"fig1.graph","trials":1e400}`, `{"graph":"fig1.graph","mu":-0}`,
		`{"graph":"fig1.graph","trials":9223372036854775807,"prep_trials":9223372036854775807}`,
		`{"graph":"fig1.graph"} trailing`,
	} {
		f.Add([]byte(raw))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := srv.decodeSpec(bytes.NewReader(data))
		if err != nil {
			return // refused with 400 before any quota is charged
		}
		if c := spec.cost(); math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
			t.Fatalf("admitted spec %+v costs %v", spec, c)
		}
		opt := spec.options(nil, time.Now())
		if err := opt.Validate(); err != nil {
			t.Fatalf("admitted spec %+v builds invalid options: %v", spec, err)
		}
		if spec.distributable() {
			opt.Executor = &core.LocalExecutor{}
			if err := opt.Validate(); err != nil {
				t.Fatalf("admitted distributable spec %+v rejects an executor: %v", spec, err)
			}
		}
	})
}
