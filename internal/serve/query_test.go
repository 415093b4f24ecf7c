package serve

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	mpmb "github.com/uncertain-graphs/mpmb"
)

// fetchResultDoc downloads and decodes a finished job's result.
func fetchResultDoc(t *testing.T, base, id string) resultDoc {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: HTTP %d", id, resp.StatusCode)
	}
	var doc resultDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestAnchoredJobEndToEnd: an anchored job spec runs through the daemon
// and returns the same result as a direct engine call, every reported
// butterfly containing the anchor. CheckpointEvery is left tiny and
// positive on purpose: query-variant jobs must run unsliced (the engine
// rejects Resume alongside an active Query), so a sliced run would fail.
func TestAnchoredJobEndToEnd(t *testing.T) {
	graphs := t.TempDir()
	writeFigure1(t, graphs, "fig1.graph")
	_, hs := testServer(t, Config{
		GraphRoot: graphs, StateDir: t.TempDir(), Workers: 1,
		CheckpointEvery: time.Millisecond,
	})

	id, _ := submitJob(t, hs.URL, "", map[string]any{
		"graph": "fig1.graph", "method": "os", "trials": 4000, "seed": 7,
		"anchor_l": 1,
	})
	if id == "" {
		t.Fatal("anchored job rejected")
	}
	waitState(t, hs.URL, id, JobDone)
	doc := fetchResultDoc(t, hs.URL, id)
	if len(doc.Top) == 0 {
		t.Fatal("anchored job returned no estimates")
	}
	for _, e := range doc.Top {
		if e.U1 != 1 && e.U2 != 1 {
			t.Fatalf("estimate %+v does not contain anchor L1", e)
		}
	}

	// Bit-identical to the engine called directly with the same spec.
	b := mpmb.NewBuilder(2, 3)
	b.MustAddEdge(0, 0, 2, 0.5)
	b.MustAddEdge(0, 1, 2, 0.6)
	b.MustAddEdge(0, 2, 1, 0.8)
	b.MustAddEdge(1, 0, 3, 0.3)
	b.MustAddEdge(1, 1, 3, 0.4)
	b.MustAddEdge(1, 2, 1, 0.7)
	anchor := mpmb.VertexID(1)
	opt := mpmb.DefaultOptions()
	opt.Method = mpmb.MethodOS
	opt.Trials = 4000
	opt.Seed = 7
	opt.Query = &mpmb.Query{AnchorL: &anchor}
	res, err := mpmb.Search(b.Build(), opt)
	if err != nil {
		t.Fatal(err)
	}
	direct := res.TopK(5)
	if len(direct) != len(doc.Top) {
		t.Fatalf("daemon top %d estimates, direct %d", len(doc.Top), len(direct))
	}
	for i, e := range doc.Top {
		d := direct[i]
		if e.U1 != d.B.U1 || e.U2 != d.B.U2 || e.V1 != d.B.V1 || e.V2 != d.B.V2 || e.P != d.P {
			t.Fatalf("estimate %d: daemon %+v, direct %+v", i, e, d)
		}
	}
}

// TestCommunityJobEndToEnd: a per-community job returns the
// per-community top lists alongside the overall best.
func TestCommunityJobEndToEnd(t *testing.T) {
	graphs := t.TempDir()
	writeFigure1(t, graphs, "fig1.graph")
	_, hs := testServer(t, Config{
		GraphRoot: graphs, StateDir: t.TempDir(), Workers: 1, CheckpointEvery: -1,
	})

	// One community holding the whole graph, so its top list must be
	// non-empty and remapped to parent vertex ids.
	id, _ := submitJob(t, hs.URL, "", map[string]any{
		"graph": "fig1.graph", "method": "os", "trials": 4000, "seed": 3,
		"communities_l": []int{0, 0}, "communities_r": []int{0, 0, 0},
	})
	if id == "" {
		t.Fatal("community job rejected")
	}
	waitState(t, hs.URL, id, JobDone)
	doc := fetchResultDoc(t, hs.URL, id)
	if len(doc.Communities) != 1 {
		t.Fatalf("got %d community blocks, want 1", len(doc.Communities))
	}
	if doc.Communities[0].Community != 0 || len(doc.Communities[0].Top) == 0 {
		t.Fatalf("community block %+v malformed", doc.Communities[0])
	}
	if len(doc.Top) == 0 {
		t.Fatal("community job returned no overall estimates")
	}
}

// TestQueryValidationErrorsAre400s: structurally invalid query specs are
// refused at admission with 400, never 500, and charge no quota.
func TestQueryValidationErrorsAre400s(t *testing.T) {
	graphs := t.TempDir()
	writeFigure1(t, graphs, "fig1.graph")
	_, hs := testServer(t, Config{
		GraphRoot: graphs, StateDir: t.TempDir(), CheckpointEvery: -1,
	})

	for name, spec := range map[string]map[string]any{
		"two anchors": {
			"graph": "fig1.graph", "trials": 1000,
			"anchor_l": 0, "anchor_r": 1,
		},
		"anchor plus communities": {
			"graph": "fig1.graph", "trials": 1000,
			"anchor_l": 0, "communities_l": []int{0, 0}, "communities_r": []int{0, 0, 0},
		},
		"anchored mc-vp": {
			"graph": "fig1.graph", "method": "mc-vp", "trials": 1000,
			"anchor_l": 0,
		},
		"adaptive prep without prep phase": {
			"graph": "fig1.graph", "method": "os", "trials": 1000,
			"adaptive_prep": true,
		},
	} {
		id, resp := submitJob(t, hs.URL, "", spec)
		if id != "" {
			t.Fatalf("%s: accepted", name)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: HTTP %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestAnchoredJobChargesSameBudget: an anchor restricts the trial scan
// but not the admission price — anchored jobs charge the tenant trial
// budget exactly like their unanchored twins.
func TestAnchoredJobChargesSameBudget(t *testing.T) {
	plain := JobSpec{Graph: "g", Method: "ols", Trials: 5000, PrepTrials: 1000}
	anchored := plain
	u := uint32(0)
	anchored.AnchorL = &u
	communities := plain
	communities.CommunitiesL = []int{0, 0}
	communities.CommunitiesR = []int{0, 0, 0}
	adaptive := plain
	adaptive.AdaptivePrep = true
	for name, sp := range map[string]JobSpec{
		"anchored": anchored, "community": communities, "adaptive": adaptive,
	} {
		if sp.cost() != plain.cost() {
			t.Errorf("%s cost %.0f, plain cost %.0f", name, sp.cost(), plain.cost())
		}
	}

	// End to end: a burst budget sized for exactly one job admits the
	// plain job and 429s the anchored twin — anchored admission draws
	// from the same bucket at the same price.
	graphs := t.TempDir()
	writeFigure1(t, graphs, "fig1.graph")
	_, hs := testServer(t, Config{
		GraphRoot: graphs, StateDir: t.TempDir(), Workers: 1, CheckpointEvery: -1,
		TenantTrialRate: 1, TenantTrialBurst: 6000, TenantJobs: 10,
	})
	plainSpec := map[string]any{
		"graph": "fig1.graph", "method": "ols", "trials": 5000, "prep_trials": 1000, "seed": 1,
	}
	id1, _ := submitJob(t, hs.URL, "dana", plainSpec)
	if id1 == "" {
		t.Fatal("budgeted plain job rejected")
	}
	anchoredSpec := map[string]any{
		"graph": "fig1.graph", "method": "ols", "trials": 5000, "prep_trials": 1000, "seed": 2,
		"anchor_l": 0,
	}
	id2, resp := submitJob(t, hs.URL, "dana", anchoredSpec)
	if id2 != "" {
		t.Fatal("anchored job admitted past the drained trial budget")
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("drained budget answer = HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After hint")
	}
}

// TestAdaptivePrepJobSliced: a global adaptive-prep job is resumable, so
// the daemon runs it in checkpointed slices, and the sliced run is
// bit-identical to a direct engine call.
func TestAdaptivePrepJobSliced(t *testing.T) {
	graphs := t.TempDir()
	g := buildMeshGraph(t, graphs, "mesh.graph")
	_, hs := testServer(t, Config{
		GraphRoot: graphs, StateDir: t.TempDir(), Workers: 1,
		CheckpointEvery: time.Millisecond,
	})
	id, _ := submitJob(t, hs.URL, "", map[string]any{
		"graph": "mesh.graph", "method": "ols", "trials": 20000, "seed": 7,
		"adaptive_prep": true,
	})
	if id == "" {
		t.Fatal("adaptive-prep job rejected")
	}
	if st := waitState(t, hs.URL, id, JobDone, JobFailed); st.State != JobDone || !st.Checkpointed {
		t.Fatalf("job state %q (err %q), checkpointed %v; want a done, sliced run", st.State, st.Error, st.Checkpointed)
	}
	doc := fetchResultDoc(t, hs.URL, id)

	opt := mpmb.DefaultOptions()
	opt.Trials = 20000
	opt.Seed = 7
	opt.Query = &mpmb.Query{AdaptivePrep: true}
	res, err := mpmb.Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	direct := res.TopK(5)
	if len(direct) == 0 || len(direct) != len(doc.Top) {
		t.Fatalf("daemon top %d estimates, direct %d", len(doc.Top), len(direct))
	}
	for i, e := range doc.Top {
		d := direct[i]
		if e.U1 != d.B.U1 || e.U2 != d.B.U2 || e.V1 != d.B.V1 || e.V2 != d.B.V2 || e.P != d.P {
			t.Fatalf("estimate %d: daemon %+v, direct %+v", i, e, d)
		}
	}
}
