package serve

import (
	"sort"
	"time"
)

// retentionLoop sweeps terminal jobs on the configured cadence until the
// daemon drains. Started by New when either retention knob is set.
func (s *Server) retentionLoop() {
	defer s.retainWG.Done()
	ticker := time.NewTicker(s.cfg.RetainSweep)
	defer ticker.Stop()
	for {
		select {
		case <-s.draining:
			return
		case <-ticker.C:
			s.sweepRetention(time.Now())
		}
	}
}

// sweepRetention applies the retention policy once: terminal jobs
// (done/failed/cancelled) older than RetainTTL are evicted, then the
// oldest-finished survivors beyond RetainMax. Eviction removes the
// job's whole on-disk footprint — result, manifest, event journal,
// leftover checkpoint — and drops it from the in-memory index, so
// status and result queries answer 404 afterwards. Queued, running and
// suspended jobs are never candidates, and a job is only evicted after
// its runner has fully finalized it (done channel closed), so a sweep
// can never race a finalize into resurrecting files it just deleted.
func (s *Server) sweepRetention(now time.Time) {
	type aged struct {
		job *Job
		at  time.Time
	}
	var terminal []aged
	s.mu.Lock()
	for _, j := range s.jobs {
		j.mu.Lock()
		ok := j.state.terminal()
		at := j.finished
		j.mu.Unlock()
		if !ok {
			continue
		}
		select {
		case <-j.done:
		default:
			continue // finalize still in flight
		}
		if at.IsZero() {
			// Terminal jobs loaded from a pre-Finished manifest: age by
			// submission so they still expire.
			at = j.Submitted
		}
		terminal = append(terminal, aged{job: j, at: at})
	}
	s.mu.Unlock()

	sort.Slice(terminal, func(i, k int) bool { return terminal[i].at.Before(terminal[k].at) })

	evict := make(map[*Job]bool)
	if ttl := s.cfg.RetainTTL; ttl > 0 {
		for _, a := range terminal {
			if now.Sub(a.at) > ttl {
				evict[a.job] = true
			}
		}
	}
	if max := s.cfg.RetainMax; max > 0 {
		keep := 0
		for i := len(terminal) - 1; i >= 0; i-- { // newest first
			if evict[terminal[i].job] {
				continue
			}
			keep++
			if keep > max {
				evict[terminal[i].job] = true
			}
		}
	}
	for _, a := range terminal {
		if evict[a.job] {
			s.evictJob(a.job)
		}
	}
}

// evictJob removes one terminal job's memory and disk footprint.
func (s *Server) evictJob(j *Job) {
	m := j.liveMetrics()
	s.mu.Lock()
	delete(s.jobs, j.ID)
	if m != nil {
		addMetrics(&s.retired, m)
	}
	s.mu.Unlock()
	s.store.removeResult(j.ID)
	s.store.removeManifest(j.ID)
	s.store.removeCheckpoint(j.ID)
	s.store.removeJournal(j.ID)
	s.stats.evicted.Add(1)
}
