package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"reflect"
	"testing"
	"time"

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
// trial schedule mid-run and community jobs reject an executor, so
// neither rides the fleet — on a -dist daemon with NO workers joined
// they finish locally with no dist→local transition. An anchored job is
// eligible: it registers with the coordinator like a global one, so the
// silent fleet degrades it to the fallback (recorded in its result),
// still bit-identical to a direct engine run.
func TestDistServeIneligibleJobsStayLocal(t *testing.T) {
	graphs := t.TempDir()
	writeFigure1(t, graphs, "fig1.graph")
	_, hs := testServer(t, Config{
		GraphRoot: graphs, StateDir: t.TempDir(), CheckpointEvery: -1,
		Dist: true, DistFallback: 50 * time.Millisecond,
	})
	for _, c := range []struct {
		name     string
		spec     map[string]any
		eligible bool
	}{
		{"adaptive", map[string]any{"method": "ols", "trials": 4000, "audit_every": 500}, false},
		{"community", map[string]any{"method": "ols", "trials": 4000, "communities_l": []int{0, 0}, "communities_r": []int{0, 0, 0}}, false},
		{"anchored", map[string]any{"method": "ols", "trials": 4000, "anchor_l": 0, "top_k": 3}, true},
	} {
		c.spec["graph"], c.spec["seed"] = "fig1.graph", 7
		id, _ := submitJob(t, hs.URL, "", c.spec)
		if id == "" {
			t.Fatalf("%s: submission rejected", c.name)
		}
		doc := waitState(t, hs.URL, id, JobDone, JobFailed)
		if doc.State != JobDone {
			t.Fatalf("%s job on a workerless -dist daemon failed: %s", c.name, doc.Error)
		}
		got := fetchResult(t, hs.URL, id)
		rode := got.Adaptive != nil && len(got.Adaptive.Transitions) > 0 && got.Adaptive.Transitions[len(got.Adaptive.Transitions)-1].From == "dist"
		if rode != c.eligible {
			t.Fatalf("%s job: rode the fleet = %v, want %v (adaptive report %+v)", c.name, rode, c.eligible, got.Adaptive)
		}
		if !c.eligible {
			continue
		}
		g, err := mpmb.LoadGraph(filepath.Join(graphs, "fig1.graph"))
		if err != nil {
			t.Fatal(err)
		}
		anchor := mpmb.VertexID(0)
		ref, err := mpmb.Search(g, mpmb.Options{Method: mpmb.MethodOLS, Trials: 4000, PrepTrials: 100, Seed: 7, Mu: 0.05, Query: &mpmb.Query{AnchorL: &anchor}})
		if err != nil {
			t.Fatal(err)
		}
		want := resultDocFrom(id, JobSpec{TopK: 3}, ref)
		if !reflect.DeepEqual(got.Top, want.Top) {
			t.Fatalf("anchored top = %+v, want %+v (fan-out must be bit-identical)", got.Top, want.Top)
		}
	}
}

// fetchResult reads a finished job's result document.
func fetchResult(t *testing.T, base, id string) resultDoc {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc resultDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
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
		"anchored-l":    {Method: "os", AnchorL: &anchor},
		"anchored-r":    {Method: "ols", AnchorR: &anchor},
		"anchored-edge": {Method: "ols-kl", AnchorEdge: &edgeAnchorSpec{U: 0, V: 0}},
	} {
		if !sp.distributable() || !sp.resumable() {
			t.Errorf("%s job not distributable and resumable", name)
		}
	}
	for name, sp := range map[string]JobSpec{
		"exact":   {Method: "exact"},
		"mc-vp":   {Method: "mc-vp"},
		"audit":   {Method: "ols", AuditEvery: 10},
		"epsilon": {Method: "os", Epsilon: 0.1},
		"deadline": {
			Method: "os", DeadlineMS: 1000,
		},
		"stall":     {Method: "os", StallTimeoutMS: 1000},
		"community": {Method: "ols", CommunitiesL: []int{0}},
	} {
		if sp.distributable() {
			t.Errorf("%s job reported distributable", name)
		}
	}
	if (JobSpec{Method: "ols", CommunitiesL: []int{0}}).resumable() {
		t.Error("community job reported resumable")
	}
}
