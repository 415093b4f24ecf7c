package bigraph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The text interchange format is line-oriented:
//
//	# free-form comment lines start with '#'
//	mpmb-bigraph <numL> <numR> <numEdges>
//	<u> <v> <weight> <probability>
//	...
//
// The header line is mandatory and must come before any edge line. The
// declared edge count is validated against the number of edge lines.

const formatMagic = "mpmb-bigraph"

// maxVerticesPerSide bounds parsed partition sizes: a graph claiming more
// vertices per side than this is rejected before any allocation, so a
// malformed or hostile header cannot exhaust memory or stall parsing
// (each vertex costs CSR index space even with zero edges; fuzzing found
// a header-only file that burned ~1 GiB and ~50 s under a larger cap).
// 2²⁴ is ~90× the largest evaluation dataset's side.
const maxVerticesPerSide = 1 << 24

// maxTextEdges bounds the declared edge count of a text header, matching
// ReadBinary's limit: a header claiming more edges than any real dataset
// is hostile or corrupt, and rejecting it up front keeps the declared
// count safe to use for preallocation.
const maxTextEdges = 1 << 33

// Write serializes g in the text interchange format.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintf(bw, "%s %d %d %d\n", formatMagic, g.numL, g.numR, len(g.edges)); err != nil {
		return err
	}
	for _, e := range g.edges {
		if _, err := fmt.Fprintf(bw, "%d %d %g %g\n", e.U, e.V, e.W, e.P); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Save writes g to the named file, creating or truncating it.
func Save(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, g); err != nil {
		f.Close()
		return fmt.Errorf("bigraph: writing %s: %w", path, err)
	}
	return f.Close()
}

// Read parses a graph from the text interchange format.
func Read(r io.Reader) (*Graph, error) { return readText(r, -1) }

// minEdgeLine is the fewest bytes an edge line takes ("0 0 0 0").
const minEdgeLine = 7

// readText is Read given the input's size in bytes, or -1 when unknown.
func readText(r io.Reader, size int64) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	var edges []Edge
	numL, numR, declared := 0, 0, -1
	var f [4][]byte
	for sc.Scan() {
		lineNo++
		nf := splitFields(sc.Bytes(), &f)
		if nf == 0 || f[0][0] == '#' {
			continue
		}
		if declared < 0 {
			if nf != 4 || string(f[0]) != formatMagic {
				return nil, fmt.Errorf("bigraph: line %d: expected header %q <numL> <numR> <numEdges>", lineNo, formatMagic)
			}
			var err error
			numL, err = strconv.Atoi(string(f[1]))
			if err != nil || numL < 0 || numL > maxVerticesPerSide {
				return nil, fmt.Errorf("bigraph: line %d: bad numL %q (limit %d)", lineNo, f[1], maxVerticesPerSide)
			}
			numR, err = strconv.Atoi(string(f[2]))
			if err != nil || numR < 0 || numR > maxVerticesPerSide {
				return nil, fmt.Errorf("bigraph: line %d: bad numR %q (limit %d)", lineNo, f[2], maxVerticesPerSide)
			}
			declared, err = strconv.Atoi(string(f[3]))
			if err != nil || declared < 0 || int64(declared) > maxTextEdges {
				return nil, fmt.Errorf("bigraph: line %d: bad edge count %q (limit %d)", lineNo, f[3], int64(maxTextEdges))
			}
			// A bipartite simple graph has at most numL·numR edges; a
			// header declaring more can never validate, so reject it
			// before parsing (and potentially buffering) the edge lines.
			if int64(declared) > int64(numL)*int64(numR) {
				return nil, fmt.Errorf("bigraph: line %d: header declares %d edges but a %d x %d graph holds at most %d",
					lineNo, declared, numL, numR, int64(numL)*int64(numR))
			}
			edges = make([]Edge, 0, edgeCapacity(declared, size, minEdgeLine))
			continue
		}
		if nf != 4 {
			return nil, fmt.Errorf("bigraph: line %d: expected '<u> <v> <w> <p>', got %d fields", lineNo, nf)
		}
		if len(edges) == declared {
			return nil, fmt.Errorf("bigraph: line %d: header declares %d edges but the file has more", lineNo, declared)
		}
		u, err := strconv.ParseUint(string(f[0]), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bigraph: line %d: bad left vertex %q: %v", lineNo, f[0], err)
		}
		v, err := strconv.ParseUint(string(f[1]), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bigraph: line %d: bad right vertex %q: %v", lineNo, f[1], err)
		}
		w, err := strconv.ParseFloat(string(f[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("bigraph: line %d: bad weight %q: %v", lineNo, f[2], err)
		}
		p, err := strconv.ParseFloat(string(f[3]), 64)
		if err != nil {
			return nil, fmt.Errorf("bigraph: line %d: bad probability %q: %v", lineNo, f[3], err)
		}
		if err := checkEdge(numL, numR, VertexID(u), VertexID(v), w, p); err != nil {
			return nil, fmt.Errorf("bigraph: line %d: %w", lineNo, err)
		}
		edges = growEdges(edges, declared)
		edges = append(edges, Edge{U: VertexID(u), V: VertexID(v), W: w, P: p})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if declared < 0 {
		return nil, fmt.Errorf("bigraph: missing header line")
	}
	if len(edges) != declared {
		return nil, fmt.Errorf("bigraph: header declares %d edges but file contains %d", declared, len(edges))
	}
	return newGraph(numL, numR, edges)
}

// edgeCapacity returns the initial capacity of the edge slice for a
// header's declared count. An input of known size holds at most
// size/perEdge edges, so a count within that is allocated exactly;
// otherwise the slice starts at 64k edges and growEdges doubles it, so a
// lying header costs no more than the input actually read.
func edgeCapacity(declared int, size, perEdge int64) int {
	if size >= 0 && int64(declared) <= size/perEdge {
		return declared
	}
	return min(declared, 1<<16)
}

// growEdges makes room for one more edge in a slice that will end at
// most limit long. Capacity doubles, capped at limit, so an honest count
// ends in a slice with no slack and at most twice its size allocated in
// all.
func growEdges(edges []Edge, limit int) []Edge {
	if len(edges) < cap(edges) {
		return edges
	}
	grown := make([]Edge, len(edges), min(2*cap(edges)+1, limit))
	copy(grown, edges)
	return grown
}

// splitFields splits line into whitespace-separated fields the way
// strings.Fields(strings.TrimSpace(line)) does, storing the first four
// (as subslices of line) in f and returning the total count. ASCII lines
// split on the six ASCII space bytes without converting to a string; a
// line with any non-ASCII byte goes through strings.Fields itself, whose
// Unicode spaces (U+0085, U+00A0, ...) also separate fields.
func splitFields(line []byte, f *[4][]byte) int {
	n, start := 0, -1
	for i, c := range line {
		switch byteClass[c] {
		case classField:
			if start < 0 {
				start = i
			}
		case classSpace:
			if start >= 0 {
				if n < len(f) {
					f[n] = line[start:i]
				}
				n++
				start = -1
			}
		default:
			fields := strings.Fields(string(line))
			for k := 0; k < len(fields) && k < len(f); k++ {
				f[k] = []byte(fields[k])
			}
			return len(fields)
		}
	}
	if start >= 0 {
		if n < len(f) {
			f[n] = line[start:]
		}
		n++
	}
	return n
}

// byteClass sorts the bytes of a text line for splitFields.
var byteClass = func() (c [256]uint8) {
	for _, b := range []byte("\t\n\v\f\r ") {
		c[b] = classSpace
	}
	for b := utf8.RuneSelf; b < len(c); b++ {
		c[b] = classNonASCII
	}
	return c
}()

const (
	classField = iota
	classSpace
	classNonASCII
)

// Load reads a graph from the named file, auto-detecting the text or
// binary interchange format by its leading bytes.
func Load(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size := int64(-1)
	if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
		size = fi.Size()
	}
	br := bufio.NewReaderSize(f, 1<<16)
	head, err := br.Peek(len(binaryMagic))
	if err == nil && string(head) == string(binaryMagic[:]) {
		g, err := readBinary(br, size)
		if err != nil {
			return nil, fmt.Errorf("bigraph: loading %s: %w", path, err)
		}
		return g, nil
	}
	g, err := readText(br, size)
	if err != nil {
		return nil, fmt.Errorf("bigraph: loading %s: %w", path, err)
	}
	return g, nil
}
