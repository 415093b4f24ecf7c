package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"sort"

	mpmb "github.com/uncertain-graphs/mpmb"
)

// genSpec describes one input graph, built by the public generators.
type genSpec struct {
	Synthetic *mpmb.SyntheticConfig `json:"synthetic,omitempty"`
	Dataset   string                `json:"dataset,omitempty"`
	Scale     float64               `json:"scale,omitempty"`
	Seed      uint64                `json:"seed"`
	// TopLeft asks for the TopLeft left vertices of highest degree.
	TopLeft int `json:"top_left"`
}

// graphInfo identifies a generated input, so two runs can show they
// measured the same graph.
type graphInfo struct {
	NumL     int    `json:"num_l"`
	NumR     int    `json:"num_r"`
	NumEdges int    `json:"num_edges"`
	Checksum uint32 `json:"checksum"`
	// TopLeft holds the left vertices of highest degree, ties by id.
	// Anchors are drawn from them, so they follow the input's degree rank
	// and never a hard-coded vertex id.
	TopLeft []mpmb.VertexID `json:"top_left"`
}

func (gi graphInfo) String() string {
	return fmt.Sprintf("|L|=%d |R|=%d |E|=%d checksum=%08x", gi.NumL, gi.NumR, gi.NumEdges, gi.Checksum)
}

// generate writes the graph spec describes to path, in the text format
// the CLI and the daemon read. It runs the generator in a child process
// so that the generator's memory never counts into the peak RSS of the
// process that runs the system.
func generate(spec genSpec, path string) (graphInfo, error) {
	var info graphInfo
	arg, err := json.Marshal(spec)
	if err != nil {
		return info, err
	}
	self, err := os.Executable()
	if err != nil {
		return info, err
	}
	cmd := exec.Command(self, string(arg), path)
	cmd.Env = append(os.Environ(), childEnv+"=gen")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return info, fmt.Errorf("generating %s: %v: %s", path, err, bytes.TrimSpace(stderr.Bytes()))
	}
	err = json.Unmarshal(out, &info)
	return info, err
}

// childMain runs one child mode.
func childMain(mode string, args []string, out io.Writer) error {
	switch mode {
	case "gen":
		return genChild(args, out)
	case "cold":
		return coldChild(args, out)
	case "ref":
		return refChild(args, os.Stdin, out)
	}
	return fmt.Errorf("unknown child mode %q", mode)
}

// genChild generates one graph: args are the JSON genSpec and the output
// path. It prints the graph's graphInfo as JSON.
func genChild(args []string, out io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("gen wants <spec> <path>, got %q", args)
	}
	var spec genSpec
	if err := json.Unmarshal([]byte(args[0]), &spec); err != nil {
		return err
	}
	var d *mpmb.Dataset
	var err error
	if spec.Synthetic != nil {
		cfg := *spec.Synthetic
		cfg.Seed = spec.Seed
		d, err = mpmb.GenerateSynthetic(cfg)
	} else {
		d, err = mpmb.GenerateDataset(spec.Dataset, mpmb.DatasetConfig{Seed: spec.Seed, Scale: spec.Scale})
	}
	if err != nil {
		return err
	}
	if err := mpmb.SaveGraph(args[1], d.G); err != nil {
		return err
	}
	g := d.G
	info := graphInfo{NumL: g.NumL(), NumR: g.NumR(), NumEdges: g.NumEdges(), Checksum: g.Checksum(),
		TopLeft: topLeft(g, spec.TopLeft)}
	return json.NewEncoder(out).Encode(info)
}

// topLeft returns the k left vertices of highest degree, ties by id.
func topLeft(g *mpmb.Graph, k int) []mpmb.VertexID {
	ids := make([]mpmb.VertexID, g.NumL())
	for i := range ids {
		ids[i] = mpmb.VertexID(i)
	}
	sort.SliceStable(ids, func(i, j int) bool { return g.DegreeL(ids[i]) > g.DegreeL(ids[j]) })
	if k > len(ids) {
		k = len(ids)
	}
	return ids[:k]
}

// graphSeed is the generator seed of every workload's graph. The graph
// is the workload's fixed corpus and --seed draws the queries on it:
// query seeds, anchors and the job mix. A graph drawn from --seed would
// move a run's cost with the seed (the ratings analogue's candidate
// count ranges over 12.7k–15.8k across generator seeds), and the
// benchmark's runs, each with its own seed, must measure the same work.
const graphSeed = 1

// anchorStrata is how many degree-rank bands anchor draws rotate over.
const anchorStrata = 10

// anchorSampler draws anchors from a degree-ordered list (highest first),
// one degree-rank band after another, at random within the band. An
// anchored query costs more the higher its anchor's degree, so drawing
// evenly from every band keeps a run's mix of cheap and expensive
// anchors the same whatever its seed.
type anchorSampler struct {
	anchors []mpmb.VertexID
	rng     *rand.Rand
	n       int
}

func (s *anchorSampler) pick() mpmb.VertexID {
	band := s.n % anchorStrata
	s.n++
	lo, hi := band*len(s.anchors)/anchorStrata, (band+1)*len(s.anchors)/anchorStrata
	if hi <= lo {
		return s.anchors[s.rng.IntN(len(s.anchors))]
	}
	return s.anchors[lo+s.rng.IntN(hi-lo)]
}

// newRNG returns the seeded generator a workload draws query seeds,
// anchors and its job mix from; stream separates independent draws.
func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}
