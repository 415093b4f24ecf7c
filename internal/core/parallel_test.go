package core

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/butterfly"
)

// TestOSParallelMatchesSequential: with per-trial derived streams, the
// parallel runner must produce bit-identical estimates to sequential OS
// for any worker count.
func TestOSParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for trial := 0; trial < 5; trial++ {
		g := randDenseSmallGraph(r, 14)
		opt := OSOptions{Trials: 500, Seed: uint64(trial) + 9}
		seq, err := OS(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 2, 3, 7} {
			par, err := osOnPool(g, opt, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(par.Estimates) != len(seq.Estimates) {
				t.Fatalf("workers=%d: %d estimates vs %d sequential",
					workers, len(par.Estimates), len(seq.Estimates))
			}
			for i := range par.Estimates {
				if par.Estimates[i] != seq.Estimates[i] {
					t.Fatalf("workers=%d: estimate %d differs: %+v vs %+v",
						workers, i, par.Estimates[i], seq.Estimates[i])
				}
			}
		}
	}
}

func TestOSParallelValidation(t *testing.T) {
	g := figure1Graph()
	if _, err := osOnPool(g, OSOptions{Trials: 0}, 2); err == nil {
		t.Fatal("OSParallel accepted Trials=0")
	}
	opt := OSOptions{Trials: 10, Seed: 1, OnTrial: func(int, *butterfly.MaxSet) {}}
	if _, err := osOnPool(g, opt, 2); err == nil {
		t.Fatal("OSParallel accepted an OnTrial hook")
	}
}

// TestEstimateOptimizedParallelMatchesSequential mirrors the OS check for
// the Algorithm 5 estimator.
func TestEstimateOptimizedParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	for trial := 0; trial < 5; trial++ {
		g := randDenseSmallGraph(r, 14)
		cands, err := AllBackboneCandidates(g)
		if err != nil {
			t.Fatal(err)
		}
		if cands.Len() == 0 {
			continue
		}
		opt := OptimizedOptions{Trials: 1000, Seed: uint64(trial) + 17}
		seq, err := EstimateOptimized(cands, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 2, 5} {
			par, err := optimizedOnPool(cands, opt, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range seq {
				if par[i] != seq[i] {
					t.Fatalf("workers=%d cand %d: %v vs %v", workers, i, par[i], seq[i])
				}
			}
		}
	}
}

func TestEstimateOptimizedParallelValidation(t *testing.T) {
	g := figure1Graph()
	cands, err := AllBackboneCandidates(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := optimizedOnPool(cands, OptimizedOptions{Trials: 0}, 2); err == nil {
		t.Fatal("accepted Trials=0")
	}
	// The ablations reach in-process workers only.
	if _, err := EstimateOptimized(cands, OptimizedOptions{Trials: 10, EagerSampling: true, Executor: remoteExecutor{}}); err == nil {
		t.Fatal("accepted an ablation option")
	}
	if _, err := optimizedOnPool(cands, OptimizedOptions{Trials: 10, OnTrial: func(int, []int) {}}, 2); err == nil {
		t.Fatal("accepted an OnTrial hook")
	}
}

// TestEstimateKarpLubyParallelMatchesSequential mirrors the other
// parallel-equivalence checks for the candidate-parallel Karp-Luby.
func TestEstimateKarpLubyParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	for trial := 0; trial < 4; trial++ {
		g := randDenseSmallGraph(r, 14)
		cands, err := AllBackboneCandidates(g)
		if err != nil {
			t.Fatal(err)
		}
		if cands.Len() < 2 {
			continue
		}
		var seqUsed, parUsed []int
		opt := KLOptions{BaseTrials: 800, Seed: uint64(trial) + 29, Mu: 0.1, TrialsUsed: &seqUsed}
		seq, err := EstimateKarpLuby(cands, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 4} {
			popt := opt
			popt.TrialsUsed = &parUsed
			par, err := klOnPool(cands, popt, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range seq {
				if par[i] != seq[i] {
					t.Fatalf("workers=%d cand %d: %v vs %v", workers, i, par[i], seq[i])
				}
				if parUsed[i] != seqUsed[i] {
					t.Fatalf("workers=%d cand %d: trials %d vs %d", workers, i, parUsed[i], seqUsed[i])
				}
			}
		}
	}
}

func TestEstimateKarpLubyParallelValidation(t *testing.T) {
	g := figure1Graph()
	cands, err := AllBackboneCandidates(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := klOnPool(cands, KLOptions{BaseTrials: 0}, 2); err == nil {
		t.Fatal("accepted BaseTrials=0")
	}
	// OnlyCandidate reaches in-process workers only.
	idx := 0
	if _, err := EstimateKarpLuby(cands, KLOptions{BaseTrials: 10, OnlyCandidate: &idx, Executor: remoteExecutor{}}); err == nil {
		t.Fatal("accepted OnlyCandidate")
	}
	if _, err := klOnPool(cands, KLOptions{BaseTrials: 10, OnCandidateTrial: func(int, int, float64) {}}, 2); err == nil {
		t.Fatal("accepted an OnCandidateTrial hook")
	}
}

// TestKarpLubyResumeAtEndWithExecutor: a checkpoint that priced every
// candidate finishes through an explicit executor with the resumed
// estimates (the executor runs no unit and returns no payload to copy).
func TestKarpLubyResumeAtEndWithExecutor(t *testing.T) {
	cands, err := AllBackboneCandidates(figure1Graph())
	if err != nil {
		t.Fatal(err)
	}
	var st EstimatorState
	want, err := EstimateKarpLuby(cands, KLOptions{BaseTrials: 10, Seed: 1, State: &st})
	if err != nil {
		t.Fatal(err)
	}
	trials := make([]int64, len(st.Trials))
	for i, n := range st.Trials {
		trials[i] = int64(n)
	}
	got, err := klOnPool(cands, KLOptions{BaseTrials: 10, Seed: 1, ResumeDone: cands.Len(), ResumeProbs: st.Probs, ResumeTrials: trials}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed estimates %v, want %v", got, want)
	}
}

// remoteExecutor stands in for an out-of-process executor: the runners
// must reject what it could not ship before calling it.
type remoteExecutor struct{}

func (remoteExecutor) ExecuteTrials(*ExecJob) (*ExecResult, error) {
	panic("remoteExecutor: called")
}

// TestInProcessOptionsAtAnyWorkerCount: the ablations and OnlyCandidate
// live in the one trial body, so a pool returns what the inline run does.
func TestInProcessOptionsAtAnyWorkerCount(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	var cands *Candidates
	for cands == nil || cands.Len() < 2 {
		var err error
		if cands, err = AllBackboneCandidates(randGraph(r, 6, 6, 20)); err != nil {
			t.Fatal(err)
		}
	}
	for _, opt := range []OptimizedOptions{
		{Trials: 700, Seed: 3, EagerSampling: true},
		{Trials: 700, Seed: 3, DisableEarlyBreak: true},
	} {
		seq, err := EstimateOptimized(cands, opt)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := EstimateOptimized(cands, OptimizedOptions{Trials: 700, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if opt.DisableEarlyBreak && !reflect.DeepEqual(seq, plain) {
			t.Fatalf("DisableEarlyBreak changed the estimates")
		}
		par, err := optimizedOnPool(cands, opt, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("%+v: pool estimates differ from the inline run", opt)
		}
	}
	only := cands.Len() - 1
	opt := KLOptions{BaseTrials: 300, Seed: 5, OnlyCandidate: &only}
	seq, err := EstimateKarpLuby(cands, opt)
	if err != nil {
		t.Fatal(err)
	}
	par, err := klOnPool(cands, opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("OnlyCandidate: pool estimates differ from the inline run")
	}
	for i, p := range seq {
		if i != only && p != 0 {
			t.Fatalf("OnlyCandidate priced candidate %d", i)
		}
	}
}
