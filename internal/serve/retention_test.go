package serve

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fetchMetrics returns the daemon's /metrics exposition.
func fetchMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// statusCode does a raw status GET without the 200 assertion jobStatus
// bakes in.
func statusCode(t *testing.T, base, id string) int {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// sweepUntilGone sweeps with the given clock until the job answers 404.
// The retry absorbs the tiny window where a job is already terminal but
// its runner has not yet closed the done channel — the sweep rightly
// refuses to evict mid-finalize.
func sweepUntilGone(t *testing.T, srv *Server, base, id string, now time.Time) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.sweepRetention(now)
		if statusCode(t, base, id) == http.StatusNotFound {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never evicted", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRetentionEvictsOldestTerminal drives the sweep directly: with
// RetainMax 1, two of three finished jobs — the two oldest — must be
// evicted from memory and disk, answering 404 afterwards; a later
// TTL-aged sweep must take the survivor too. The eviction counter tracks
// every removal.
func TestRetentionEvictsOldestTerminal(t *testing.T) {
	graphs := t.TempDir()
	writeFigure1(t, graphs, "fig1.graph")
	// RetainSweep an hour out: the background loop stays quiet and the
	// test owns the sweep clock.
	srv, hs := testServer(t, Config{
		GraphRoot: graphs, StateDir: t.TempDir(), CheckpointEvery: -1,
		RetainTTL: time.Hour, RetainMax: 1, RetainSweep: time.Hour,
	})

	var ids []string
	for i := 0; i < 3; i++ {
		id, _ := submitJob(t, hs.URL, "", map[string]any{
			"graph": "fig1.graph", "method": "os", "trials": 2000, "seed": 7 + i,
		})
		if id == "" {
			t.Fatal("submission rejected")
		}
		if doc := waitState(t, hs.URL, id, JobDone, JobFailed); doc.State != JobDone {
			t.Fatalf("job %d failed: %s", i, doc.Error)
		}
		ids = append(ids, id)
		time.Sleep(5 * time.Millisecond) // distinct finish stamps
	}

	for _, id := range ids[:2] {
		sweepUntilGone(t, srv, hs.URL, id, time.Now())
		if resp, err := http.Get(hs.URL + "/v1/jobs/" + id + "/result"); err != nil {
			t.Fatal(err)
		} else {
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("evicted result %s answers %d, want 404", id, resp.StatusCode)
			}
		}
	}
	if code := statusCode(t, hs.URL, ids[2]); code != http.StatusOK {
		t.Fatalf("newest job evicted (status %d); RetainMax must keep the most recent", code)
	}
	if m := fetchMetrics(t, hs.URL); !strings.Contains(m, "mpmb_serve_jobs_evicted_total 2") {
		t.Fatalf("eviction counter not at 2:\n%s", m)
	}

	// TTL pass: from two hours in the future even the survivor is stale.
	sweepUntilGone(t, srv, hs.URL, ids[2], time.Now().Add(2*time.Hour))
	if m := fetchMetrics(t, hs.URL); !strings.Contains(m, "mpmb_serve_jobs_evicted_total 3") {
		t.Fatalf("eviction counter not at 3:\n%s", m)
	}
}

// TestRetentionSparesLiveJobs: queued/running/suspended jobs are never
// retention candidates, no matter how old — only terminal states age
// out. A cancelled (terminal) job then becomes evictable.
func TestRetentionSparesLiveJobs(t *testing.T) {
	graphs := t.TempDir()
	buildMeshGraph(t, graphs, "mesh.graph")
	srv, hs := testServer(t, Config{
		GraphRoot: graphs, StateDir: t.TempDir(), CheckpointEvery: -1,
		RetainTTL: time.Millisecond, RetainSweep: time.Hour,
	})

	id, _ := submitJob(t, hs.URL, "", map[string]any{
		"graph": "mesh.graph", "method": "os", "trials": 15_000_000, "seed": 7,
	})
	if id == "" {
		t.Fatal("submission rejected")
	}
	waitState(t, hs.URL, id, JobRunning)

	// A sweep from far in the future: the running job must survive.
	srv.sweepRetention(time.Now().Add(24 * time.Hour))
	if code := statusCode(t, hs.URL, id); code != http.StatusOK {
		t.Fatalf("running job evicted (status %d)", code)
	}

	resp, err := http.Post(hs.URL+"/v1/jobs/"+id+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, hs.URL, id, JobCancelled)

	// Now terminal: the same sweep takes it.
	sweepUntilGone(t, srv, hs.URL, id, time.Now().Add(24*time.Hour))
}

// nonGaugeSeries parses a /metrics exposition into its counter and
// histogram series: every sample line whose metric is not declared a
// gauge.
func nonGaugeSeries(t *testing.T, text string) map[string]float64 {
	t.Helper()
	gauges := make(map[string]bool)
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" && f[3] == "gauge" {
			gauges[f[2]] = true
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		series := line[:i]
		if gauges[strings.SplitN(series, "{", 2)[0]] {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[series] = v
	}
	return out
}

// TestRetentionKeepsCountersMonotone: evicting a finished job must not
// lower any daemon-wide counter — its engine counters stay in the
// totals after its record is gone.
func TestRetentionKeepsCountersMonotone(t *testing.T) {
	graphs := t.TempDir()
	writeFigure1(t, graphs, "fig1.graph")
	srv, hs := testServer(t, Config{
		GraphRoot: graphs, StateDir: t.TempDir(), CheckpointEvery: -1,
		RetainTTL: time.Hour, RetainMax: 1, RetainSweep: time.Hour,
	})
	var ids []string
	for i := 0; i < 2; i++ {
		id, _ := submitJob(t, hs.URL, "", map[string]any{
			"graph": "fig1.graph", "method": "ols", "trials": 2000, "prep_trials": 50, "seed": 7 + i,
		})
		if id == "" {
			t.Fatal("submission rejected")
		}
		if doc := waitState(t, hs.URL, id, JobDone, JobFailed); doc.State != JobDone {
			t.Fatalf("job %s failed: %s", id, doc.Error)
		}
		ids = append(ids, id)
	}
	before := nonGaugeSeries(t, fetchMetrics(t, hs.URL))
	if before["mpmb_trials_total"] != 4000 {
		t.Fatalf("mpmb_trials_total = %v before eviction, want 4000", before["mpmb_trials_total"])
	}
	sweepUntilGone(t, srv, hs.URL, ids[0], time.Now())
	after := nonGaugeSeries(t, fetchMetrics(t, hs.URL))
	for series, v := range before {
		if after[series] < v {
			t.Errorf("%s fell from %v to %v after eviction", series, v, after[series])
		}
	}
}
