package bigraph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// Binary interchange format, for datasets where the text format's parse
// cost matters (the Protein analogue is ~1M edges):
//
//	magic   [8]byte  "MPMBBIN1"
//	numL    uint32   little endian
//	numR    uint32
//	numE    uint64
//	edges   numE × { u uint32, v uint32, w float64, p float64 }
//	crc     uint32   IEEE CRC-32 over everything above
//
// Load sniffs the magic, so one loader handles both formats.

var binaryMagic = [8]byte{'M', 'P', 'M', 'B', 'B', 'I', 'N', '1'}

const edgeRecordSize = 4 + 4 + 8 + 8

// WriteBinary serializes g in the binary interchange format.
func WriteBinary(w io.Writer, g *Graph) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<16)
	// The CRC must cover exactly the bytes written; writing through the
	// MultiWriter via the buffer keeps them in lockstep because the
	// buffer flushes to both sinks together.
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(g.numL))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(g.numR))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(g.edges)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [edgeRecordSize]byte
	for _, e := range g.edges {
		binary.LittleEndian.PutUint32(rec[0:], e.U)
		binary.LittleEndian.PutUint32(rec[4:], e.V)
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(e.W))
		binary.LittleEndian.PutUint64(rec[16:], math.Float64bits(e.P))
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	_, err := w.Write(tail[:])
	return err
}

// ReadBinary parses a graph from the binary interchange format,
// validating every edge and the trailing checksum (recomputed from the
// parsed content, which is byte-equivalent to the canonical payload).
func ReadBinary(r io.Reader) (*Graph, error) { return readBinary(r, -1) }

// readBinary is ReadBinary given the input's size in bytes, or -1 when
// unknown.
func readBinary(r io.Reader, size int64) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<16)

	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("bigraph: reading binary magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("bigraph: bad binary magic %q", magic)
	}
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("bigraph: reading binary header: %w", err)
	}
	numL := binary.LittleEndian.Uint32(hdr[0:])
	numR := binary.LittleEndian.Uint32(hdr[4:])
	numE := binary.LittleEndian.Uint64(hdr[8:])
	const maxEdges = 1 << 33 // refuse absurd headers before allocating
	if numE > maxEdges {
		return nil, fmt.Errorf("bigraph: binary header declares %d edges (limit %d)", numE, uint64(maxEdges))
	}
	if numL > maxVerticesPerSide || numR > maxVerticesPerSide {
		return nil, fmt.Errorf("bigraph: binary header declares %d×%d vertices (limit %d per side)", numL, numR, maxVerticesPerSide)
	}
	// Records stream through a chunk buffer; the checksum runs over the
	// raw bytes as they arrive, which equals payloadCRC of the parsed
	// graph because decoding a record is exact.
	crc := crc32.Update(0, crc32.IEEETable, magic[:])
	crc = crc32.Update(crc, crc32.IEEETable, hdr[:])
	edges := make([]Edge, 0, edgeCapacity(int(numE), size, edgeRecordSize))
	buf := make([]byte, crcChunk/edgeRecordSize*edgeRecordSize)
	for i := uint64(0); i < numE; {
		chunk := buf[:min(numE-i, uint64(len(buf)/edgeRecordSize))*edgeRecordSize]
		if n, err := io.ReadFull(br, chunk); err != nil {
			return nil, fmt.Errorf("bigraph: reading edge %d: %w", i+uint64(n/edgeRecordSize), err)
		}
		crc = crc32.Update(crc, crc32.IEEETable, chunk)
		for rec := chunk; len(rec) > 0; rec = rec[edgeRecordSize:] {
			u := binary.LittleEndian.Uint32(rec[0:])
			v := binary.LittleEndian.Uint32(rec[4:])
			w := math.Float64frombits(binary.LittleEndian.Uint64(rec[8:]))
			p := math.Float64frombits(binary.LittleEndian.Uint64(rec[16:]))
			if err := checkEdge(int(numL), int(numR), u, v, w, p); err != nil {
				return nil, fmt.Errorf("bigraph: edge %d: %w", i, err)
			}
			edges = growEdges(edges, int(numE))
			edges = append(edges, Edge{U: u, V: v, W: w, P: p})
			i++
		}
	}
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return nil, fmt.Errorf("bigraph: reading checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != crc {
		return nil, fmt.Errorf("bigraph: checksum mismatch: file %08x, payload %08x", got, crc)
	}
	return newGraph(int(numL), int(numR), edges)
}

// crcChunk is the staging size of the checksum: CRC-32 takes its fast
// slicing path only on long buffers, so records are checksummed in
// batches of up to this many bytes rather than one 24-byte record at a
// time.
const crcChunk = 1 << 16

// payloadCRC computes the CRC-32 of g's canonical binary payload (magic,
// header, edge records), staging the encoding through one crcChunk
// buffer instead of materializing it.
func payloadCRC(g *Graph) uint32 {
	buf := make([]byte, 0, crcChunk)
	buf = append(buf, binaryMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(g.numL))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(g.numR))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(g.edges)))
	var crc uint32
	for _, e := range g.edges {
		if len(buf)+edgeRecordSize > cap(buf) {
			crc = crc32.Update(crc, crc32.IEEETable, buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint32(buf, e.U)
		buf = binary.LittleEndian.AppendUint32(buf, e.V)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.W))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.P))
	}
	return crc32.Update(crc, crc32.IEEETable, buf)
}

// Checksum returns the CRC-32 of g's canonical binary payload — a cheap
// fingerprint that identifies the graph's exact content (partitions,
// edges, weights, probabilities). Run checkpoints embed it so that a
// resume against a different graph is refused instead of silently
// producing garbage.
func (g *Graph) Checksum() uint32 { return payloadCRC(g) }

// SaveBinary writes g to the named file in the binary format.
func SaveBinary(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, g); err != nil {
		f.Close()
		return fmt.Errorf("bigraph: writing %s: %w", path, err)
	}
	return f.Close()
}
