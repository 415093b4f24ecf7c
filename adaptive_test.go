package mpmb

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

func TestAdaptiveSearchAuditsCleanRun(t *testing.T) {
	g := figure1(t)
	opt := DefaultOptions()
	opt.Trials = 4000
	opt.AuditEvery = 500
	res, err := Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adaptive == nil {
		t.Fatal("adaptive run returned no AdaptiveReport")
	}
	if res.Adaptive.StopReason != StopCompleted {
		t.Errorf("stop reason %q, want %q", res.Adaptive.StopReason, StopCompleted)
	}
	if res.Adaptive.Audits == 0 {
		t.Error("no audits ran despite AuditEvery")
	}
	// A well-prepared run on figure1 never escalates, so estimates match
	// the plain search bit for bit.
	plain := opt
	plain.AuditEvery = 0
	want, err := Search(g, plain)
	if err != nil {
		t.Fatal(err)
	}
	if want.Adaptive != nil {
		t.Error("plain search carries an AdaptiveReport")
	}
	if len(res.Estimates) != len(want.Estimates) {
		t.Fatalf("estimate counts differ: %d vs %d", len(res.Estimates), len(want.Estimates))
	}
	for i := range res.Estimates {
		if res.Estimates[i] != want.Estimates[i] {
			t.Errorf("estimate %d differs: %+v vs %+v", i, res.Estimates[i], want.Estimates[i])
		}
	}
}

func TestAdaptiveSearchEpsilonStopsEarly(t *testing.T) {
	g := figure1(t)
	opt := Options{Method: MethodOS, Trials: 500000, Seed: 7, Epsilon: 0.05}
	res, err := Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adaptive == nil || res.Adaptive.StopReason != StopEpsilon {
		t.Fatalf("expected an epsilon stop, got %+v", res.Adaptive)
	}
	if !res.Partial || res.TrialsDone >= opt.Trials {
		t.Errorf("epsilon stop should cut the budget: Partial=%v TrialsDone=%d", res.Partial, res.TrialsDone)
	}
	if hw := res.Adaptive.HalfWidth; hw <= 0 || hw > opt.Epsilon {
		t.Errorf("achieved half-width %v outside (0, %v]", hw, opt.Epsilon)
	}
}

func TestAdaptiveSearchDeadline(t *testing.T) {
	g := figure1(t)
	opt := Options{Method: MethodOS, Trials: 1 << 30, Seed: 7, Deadline: time.Now().Add(50 * time.Millisecond)}
	start := time.Now()
	res, err := Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline run overshot wildly: %v", elapsed)
	}
	if res.Adaptive == nil || res.Adaptive.StopReason != StopDeadline {
		t.Fatalf("expected a deadline stop, got %+v", res.Adaptive)
	}
	if !res.Partial {
		t.Error("deadline stop should be partial")
	}
}

func TestAdaptiveSearchContextCancel(t *testing.T) {
	g := figure1(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := Options{Method: MethodOS, Trials: 100000, Epsilon: 0.0001}
	res, err := SearchContext(ctx, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adaptive == nil || res.Adaptive.StopReason != StopCancelled {
		t.Fatalf("expected a cancelled stop, got %+v", res.Adaptive)
	}
	if res.TrialsDone != 0 {
		t.Errorf("pre-cancelled context ran %d trials", res.TrialsDone)
	}
}

func TestAdaptiveSearcherUsesCache(t *testing.T) {
	g := figure1(t)
	s := NewSearcher(g)
	opt := DefaultOptions()
	opt.Trials = 3000
	opt.AuditEvery = 500
	res, err := s.Search(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adaptive == nil || res.Adaptive.StopReason != StopCompleted {
		t.Fatalf("searcher adaptive run: %+v", res.Adaptive)
	}
	want, err := Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimates) != len(want.Estimates) {
		t.Fatalf("cached-candidate run diverges: %d vs %d estimates", len(res.Estimates), len(want.Estimates))
	}
	for i := range res.Estimates {
		if res.Estimates[i] != want.Estimates[i] {
			t.Errorf("estimate %d differs: %+v vs %+v", i, res.Estimates[i], want.Estimates[i])
		}
	}
}

func TestAdaptiveSearchStallWatchdog(t *testing.T) {
	g := figure1(t)
	// A healthy run finishes well before the watchdog budget.
	opt := Options{Method: MethodOS, Trials: 1000, StallTimeout: 30 * time.Second}
	res, err := Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adaptive == nil || res.Adaptive.StopReason != StopCompleted {
		t.Fatalf("watchdogged run: %+v", res.Adaptive)
	}
}

func TestAdaptiveOptionsValidation(t *testing.T) {
	g := figure1(t)
	cases := []Options{
		{Method: MethodExact, Epsilon: 0.1},
		{Method: MethodOS, Trials: 100, AuditEvery: 10},
		{Method: MethodOLSKL, Trials: 100, PrepTrials: 10, Epsilon: 0.1},
		{Method: MethodOS, Trials: 100, AuditEvery: -1},
		{Method: MethodOS, Trials: 100, Epsilon: -0.5},
		{Method: MethodOS, Trials: 100, StallTimeout: -time.Second},
	}
	for i, opt := range cases {
		if _, err := Search(g, opt); err == nil {
			t.Errorf("case %d: Search accepted invalid adaptive options %+v", i, opt)
		}
	}
}

func TestCheckpointStorePublicRoundTrip(t *testing.T) {
	g := figure1(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SearchContext(ctx, g, Options{Method: MethodOS, Trials: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ck := res.Checkpoint
	if ck == nil {
		t.Fatal("cancelled run carries no checkpoint")
	}
	store := NewCheckpointStore(DefaultRetryPolicy())
	path := t.TempDir() + "/run.ckpt"
	if err := store.Save(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := store.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	done, err := Search(g, Options{Method: MethodOS, Trials: 1000, Resume: got})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Search(g, Options{Method: MethodOS, Trials: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for i := range done.Estimates {
		if done.Estimates[i] != want.Estimates[i] {
			t.Errorf("resumed estimate %d differs: %+v vs %+v", i, done.Estimates[i], want.Estimates[i])
		}
	}
	if _, err := store.Load(path + ".missing"); !errors.Is(err, ErrRetriesExhausted) {
		t.Errorf("missing checkpoint should exhaust retries, got %v", err)
	}
}

// TestAdaptiveSearchCancelledInPrep: a supervised OLS run cancelled in
// its preparing phase reports the cancellation through the supervisor
// and leaves a prepare-phase checkpoint that resumes to the uncancelled
// estimates.
func TestAdaptiveSearchCancelledInPrep(t *testing.T) {
	g := figure1(t)
	opt := DefaultOptions()
	opt.Trials = 3000
	opt.AuditEvery = 500
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	part, err := SearchContext(ctx, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if part.Adaptive == nil || part.Adaptive.StopReason != StopCancelled {
		t.Fatalf("expected a cancelled stop, got %+v", part.Adaptive)
	}
	if part.Checkpoint == nil || !part.Checkpoint.Prepare {
		t.Fatalf("expected a prepare-phase checkpoint, got %+v", part.Checkpoint)
	}
	want, err := Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Resume = part.Checkpoint
	got, err := NewSearcher(g).Search(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Estimates, want.Estimates) {
		t.Fatalf("resumed estimates differ:\n got: %+v\nwant: %+v", got.Estimates, want.Estimates)
	}
}
