package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"

	mpmb "github.com/uncertain-graphs/mpmb"
	"github.com/uncertain-graphs/mpmb/internal/dist"
)

// TestDistServeFansOutJobs: a -dist daemon mounts the coordinator on
// its own listener, hands an eligible job's trials to a joined worker
// fleet, and the fetched result is still bit-identical to a direct
// engine call — the fan-out must add zero noise on top of the daemon.
func TestDistServeFansOutJobs(t *testing.T) {
	graphs := t.TempDir()
	writeFigure1(t, graphs, "fig1.graph")
	_, hs := testServer(t, Config{
		GraphRoot: graphs, StateDir: t.TempDir(), CheckpointEvery: -1, Dist: true,
	})

	// Two workers join the daemon's own /dist/v1 endpoints.
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for _, name := range []string{"w0", "w1"} {
		go (&dist.Worker{Base: hs.URL, Name: name, Pool: 1}).Run(ctx)
	}

	id, _ := submitJob(t, hs.URL, "", map[string]any{
		"graph": "fig1.graph", "method": "os", "trials": 20000, "seed": 7, "top_k": 3,
	})
	if id == "" {
		t.Fatal("submission rejected")
	}
	doc := waitState(t, hs.URL, id, JobDone, JobFailed)
	if doc.State != JobDone {
		t.Fatalf("distributed job failed: %s", doc.Error)
	}

	resp, err := http.Get(hs.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got resultDoc
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	g, err := mpmb.LoadGraph(filepath.Join(graphs, "fig1.graph"))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mpmb.Search(g, mpmb.Options{Method: mpmb.MethodOS, Trials: 20000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := resultDocFrom(id, JobSpec{TopK: 3}, ref)
	if len(got.Top) != len(want.Top) {
		t.Fatalf("%d top entries, want %d", len(got.Top), len(want.Top))
	}
	for i := range got.Top {
		if got.Top[i] != want.Top[i] {
			t.Fatalf("top[%d] = %+v, want %+v (fan-out must be bit-identical)", i, got.Top[i], want.Top[i])
		}
	}
}

// TestDistServeIneligibleJobsStayLocal: adaptive jobs reshape their
// trial schedule mid-run and must not ride the fleet — on a -dist
// daemon with NO workers joined, they still finish locally.
func TestDistServeIneligibleJobsStayLocal(t *testing.T) {
	graphs := t.TempDir()
	writeFigure1(t, graphs, "fig1.graph")
	_, hs := testServer(t, Config{
		GraphRoot: graphs, StateDir: t.TempDir(), CheckpointEvery: -1, Dist: true,
	})
	id, _ := submitJob(t, hs.URL, "", map[string]any{
		"graph": "fig1.graph", "method": "ols", "trials": 4000, "audit_every": 500, "seed": 7,
	})
	if id == "" {
		t.Fatal("submission rejected")
	}
	doc := waitState(t, hs.URL, id, JobDone, JobFailed)
	if doc.State != JobDone {
		t.Fatalf("adaptive job on a workerless -dist daemon failed: %s", doc.Error)
	}
}

// TestJobSpecDistributable pins the eligibility rule.
func TestJobSpecDistributable(t *testing.T) {
	base := JobSpec{Method: "os", Trials: 1000}
	if !base.distributable() {
		t.Fatal("plain os job not distributable")
	}
	if sp := (JobSpec{Method: "ols", AdaptivePrep: true}); !sp.distributable() || !sp.resumable() {
		t.Fatal("adaptive-prep job not distributable and resumable")
	}
	anchor := uint32(0)
	for name, sp := range map[string]JobSpec{
		"exact":   {Method: "exact"},
		"mc-vp":   {Method: "mc-vp"},
		"audit":   {Method: "ols", AuditEvery: 10},
		"epsilon": {Method: "os", Epsilon: 0.1},
		"deadline": {
			Method: "os", DeadlineMS: 1000,
		},
		"stall":     {Method: "os", StallTimeoutMS: 1000},
		"anchored":  {Method: "os", AnchorL: &anchor},
		"community": {Method: "ols", CommunitiesL: []int{0}},
	} {
		if sp.distributable() {
			t.Errorf("%s job reported distributable", name)
		}
	}
}
