package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/butterfly"
)

// sampleCheckpoints returns one valid checkpoint per payload kind.
func sampleCheckpoints() map[string]*Checkpoint {
	counts := []ButterflyCount{
		{B: butterfly.New(0, 1, 0, 1), Count: 12, Weight: 10},
		{B: butterfly.New(0, 1, 0, 2), Count: 3, Weight: 7},
		{B: butterfly.New(0, 1, 1, 2), Count: 7, Weight: 7},
	}
	return map[string]*Checkpoint{
		"mc-vp": {
			Method: "mc-vp", Seed: 42, Trials: 100, Done: 12,
			GraphCRC: 0xdeadbeef, Counts: counts,
		},
		"os": {
			Method: "os", Seed: 7, Trials: 5000, Done: 4999,
			GraphCRC: 1, Counts: counts[:1],
		},
		"ols-prepare": {
			Method: "ols", Seed: 9, Trials: 20000, PrepTrials: 100,
			Prepare: true, Done: 55, GraphCRC: 3, Counts: counts,
		},
		"ols": {
			Method: "ols", Seed: 9, Trials: 200, PrepTrials: 100,
			Done: 150, GraphCRC: 3, CandCounts: []int64{150, 0, 75},
		},
		"ols-kl": {
			Method: "ols-kl", Seed: 9, Trials: 200, PrepTrials: 100, Mu: 0.05,
			Done: 2, GraphCRC: 3,
			CandProbs:  []float64{0.25, 0.125, 0},
			CandTrials: []int64{200, 400, 0},
		},
		"os-anchored": {
			Method: "os", Seed: 7, Trials: 5000, Done: 12, GraphCRC: 1,
			Anchor: Anchor{Kind: AnchorRight, V: 3}, Counts: counts[:2],
		},
		"ols-anchored-edge": {
			Method: "ols", Seed: 9, Trials: 200, PrepTrials: 100,
			Done: 150, GraphCRC: 3, Anchor: Anchor{Kind: AnchorEdge, U: 1, V: 2},
			CandCounts: []int64{150, 0, 75},
		},
	}
}

func TestCheckpointRoundtrip(t *testing.T) {
	for name, ck := range sampleCheckpoints() {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := ck.Encode(&buf); err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, ck) {
				t.Fatalf("roundtrip mismatch:\ngot  %+v\nwant %+v", got, ck)
			}
		})
	}
}

func TestCheckpointFileRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	ck := sampleCheckpoints()["ols-kl"]
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Fatalf("file roundtrip mismatch:\ngot  %+v\nwant %+v", got, ck)
	}
	// The atomic save must not leave its temporary file behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temporary file left behind: %s", e.Name())
		}
	}
}

// TestCheckpointDecodeRejectsDamage covers the robustness contract: every
// truncation must error, and so must single-byte corruption anywhere (the
// trailing CRC catches whatever field validation lets through).
func TestCheckpointDecodeRejectsDamage(t *testing.T) {
	ck := sampleCheckpoints()["mc-vp"]
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	for cut := 0; cut < len(raw); cut++ {
		if _, err := DecodeCheckpoint(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully", cut, len(raw))
		}
	}
	for i := range raw {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), raw...)
			mut[i] ^= flip
			if _, err := DecodeCheckpoint(bytes.NewReader(mut)); err == nil {
				t.Fatalf("corrupting byte %d (xor %#x) decoded successfully", i, flip)
			}
		}
	}
}

func TestCheckpointDecodeRejectsVersionSkew(t *testing.T) {
	ck := sampleCheckpoints()["os"]
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Bump the version field (bytes 8..11) and re-stamp the trailing CRC so
	// only the version mismatch can be the reason for rejection.
	raw[8] = ckptVersion + 1
	restampCRC(raw)
	_, err := DecodeCheckpoint(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version-skewed checkpoint: err = %v, want version error", err)
	}
}

// restampCRC rewrites the trailing IEEE CRC-32 to match the (possibly
// mutated) preceding bytes.
func restampCRC(raw []byte) {
	sum := crc32.ChecksumIEEE(raw[:len(raw)-4])
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], sum)
}

// TestCheckpointEncodeRejectsInvalid ensures structurally inconsistent
// checkpoints cannot be serialized in the first place.
func TestCheckpointEncodeRejectsInvalid(t *testing.T) {
	bad := []*Checkpoint{
		{Method: "bogus", Trials: 10, Done: 1},
		{Method: "os", Trials: 10, Done: 11},                                                                    // done past target
		{Method: "os", Trials: 10, Done: -1},                                                                    // negative prefix
		{Method: "os", Trials: 10, Done: 2, Counts: []ButterflyCount{{Count: 5}}},                               // count > done
		{Method: "ols", Trials: 10, PrepTrials: 5, Done: 2, CandCounts: []int64{-1}},                            // negative count
		{Method: "ols-kl", Trials: 10, PrepTrials: 5, Done: 1, CandProbs: []float64{2}, CandTrials: []int64{1}}, // prob > 1
		{Method: "os", Trials: 10, Done: 2, CandCounts: []int64{1}},                                             // wrong payload for method
		{Method: "os", Trials: 10, Done: 2, Anchor: Anchor{Kind: 9}},                                            // unknown anchor kind
		{Method: "os", Trials: 10, Done: 2, Anchor: Anchor{U: 3}},                                               // unanchored with a vertex
		{Method: "os", Trials: 10, Done: 2, Anchor: Anchor{Kind: AnchorLeft, V: 1}},                             // left anchor with a right vertex
		{Method: "mc-vp", Trials: 10, Done: 2, Anchor: Anchor{Kind: AnchorLeft}},                                // mc-vp cannot be anchored
	}
	for i, ck := range bad {
		var buf bytes.Buffer
		if err := ck.Encode(&buf); err == nil {
			t.Errorf("case %d: invalid checkpoint encoded successfully: %+v", i, ck)
		}
	}
}

// FuzzCheckpointDecode hammers the decoder with arbitrary bytes: it must
// error or succeed, never panic, and any checkpoint it accepts must
// re-encode to an equal value (decode∘encode is the identity on the
// accepted set).
func FuzzCheckpointDecode(f *testing.F) {
	for _, ck := range sampleCheckpoints() {
		var buf bytes.Buffer
		if err := ck.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
		mut := append([]byte(nil), buf.Bytes()...)
		if len(mut) > 20 {
			mut[20] ^= 0x40
		}
		f.Add(mut)
	}
	if v1, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v1_os.ckpt")); err == nil {
		f.Add(v1)
	}
	f.Add([]byte{})
	f.Add([]byte("MPMBCKP1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := ck.Encode(&buf); err != nil {
			t.Fatalf("accepted checkpoint fails to re-encode: %v", err)
		}
		back, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded checkpoint fails to decode: %v", err)
		}
		if !reflect.DeepEqual(back, ck) {
			t.Fatalf("re-encode changed the checkpoint:\nfirst  %+v\nsecond %+v", ck, back)
		}
	})
}

// TestCheckpointV1DecodesUnanchored: a version-1 file (written before
// checkpoints recorded an anchor) still decodes, as an unanchored
// checkpoint, and resumes its global run to the uncut Result. The file
// is an OS run on the Figure 1 graph (Trials 100, Seed 4) cut after 30
// trials.
func TestCheckpointV1DecodesUnanchored(t *testing.T) {
	ck, err := LoadCheckpoint(filepath.Join("testdata", "checkpoint_v1_os.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if ck.Anchor != (Anchor{}) || ck.Method != "os" || ck.Done != 30 {
		t.Fatalf("v1 checkpoint decoded as %+v", ck)
	}
	g := figure1Graph()
	want, err := OS(g, OSOptions{Trials: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := OS(g, OSOptions{Trials: 100, Seed: 4, Resume: ck})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed v1 checkpoint differs from the uncut run")
	}
	if _, err := OS(g, OSOptions{Trials: 100, Seed: 4, Resume: ck, Anchor: Anchor{Kind: AnchorLeft}}); err == nil {
		t.Fatal("v1 (unanchored) checkpoint resumed an anchored run")
	}
}

// TestCheckpointDecodeHugeCountFailsCheap: a header declaring the
// maximum entry count over a truncated body must fail without first
// allocating room for every declared entry (gigabytes at the limit).
func TestCheckpointDecodeHugeCountFailsCheap(t *testing.T) {
	ck := sampleCheckpoints()["os"]
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	// The entry count follows the fixed header and the 1-byte kind.
	off := 8 + 4 + 2 + len(ck.Method) + 4*8 + 4 + 1 + 9 + 8 + 1
	raw := buf.Bytes()[:off+8]
	binary.LittleEndian.PutUint64(raw[off:], maxCheckpointEntries)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := DecodeCheckpoint(bytes.NewReader(raw)); err == nil {
		t.Fatal("truncated checkpoint decoded")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("decoding a truncated header allocated %d bytes", grew)
	}
}
