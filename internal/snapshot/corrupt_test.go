package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// smallSnapshot is a compact two-group snapshot for exhaustive
// per-byte/per-truncation sweeps.
func smallSnapshot(t *testing.T) []byte {
	t.Helper()
	return encode(t, Snapshot{
		Store:  testStore(11),
		Source: testStore(12),
		Meta:   Meta{Kind: "solution", Schema: []RelSig{{Name: "E", Attrs: []string{"a"}}}},
	})
}

// tryLoad opens and fully materializes data, returning the first error.
// It must never panic, which the test harness enforces for free.
func tryLoad(data []byte) error {
	f, err := OpenBytes(data)
	if err != nil {
		return err
	}
	if _, err := f.Store(); err != nil {
		return err
	}
	if f.HasSource() {
		if _, err := f.SourceStore(); err != nil {
			return err
		}
	}
	return nil
}

func TestTruncationAlwaysErrors(t *testing.T) {
	data := smallSnapshot(t)
	for n := 0; n < len(data); n++ {
		if err := tryLoad(data[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes loaded successfully", n, len(data))
		}
	}
}

// TestBitFlips flips every byte of the file and asserts the loader either
// rejects the file or — only for bytes outside every checksum, i.e. the
// zero padding between sections — loads a store identical to the
// original. Silently loading different data is the one forbidden outcome.
func TestBitFlips(t *testing.T) {
	data := smallSnapshot(t)
	f, err := OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := f.Store()
	if err != nil {
		t.Fatal(err)
	}
	origStr := orig.String()
	mut := make([]byte, len(data))
	for i := range data {
		copy(mut, data)
		mut[i] ^= 0xff
		err := tryLoad(mut)
		if err != nil {
			continue
		}
		mf, _ := OpenBytes(mut)
		st, _ := mf.Store()
		if st.String() != origStr {
			t.Fatalf("flip at byte %d silently loaded different data", i)
		}
	}
}

func TestBadMagic(t *testing.T) {
	data := smallSnapshot(t)
	bad := append([]byte("NOTASNAP"), data[8:]...)
	if err := tryLoad(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v", err)
	}
}

func TestBadVersion(t *testing.T) {
	data := append([]byte(nil), smallSnapshot(t)...)
	binary.LittleEndian.PutUint32(data[8:], version+1)
	if err := tryLoad(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("future version: %v", err)
	}
}

func TestBadTailMagic(t *testing.T) {
	data := append([]byte(nil), smallSnapshot(t)...)
	binary.LittleEndian.PutUint32(data[len(data)-4:], 0xdeadbeef)
	if err := tryLoad(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad tail magic: %v", err)
	}
}

// TestSectionChecksumMismatch corrupts one byte inside the first relation
// section specifically and asserts the error mentions a checksum, i.e.
// corruption is caught by the CRC before structural validation.
func TestSectionChecksumMismatch(t *testing.T) {
	data := append([]byte(nil), smallSnapshot(t)...)
	// The meta section is first; flip a byte just past the header inside
	// its payload (the JSON braces are at headerLen).
	data[headerLen] ^= 0x01
	err := tryLoad(data)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped section byte: %v", err)
	}
}

func TestGarbageInput(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		{},
		[]byte("hello"),
		bytes.Repeat([]byte{0}, 4096),
		bytes.Repeat([]byte{0xff}, 4096),
	} {
		if err := tryLoad(data); err == nil {
			t.Fatalf("garbage of %d bytes loaded successfully", len(data))
		}
	}
}

// relPayload renders a relation payload in the file's layout: row count,
// validity bitmap (all rows live), segment count, then per segment its
// arity, row-number array and columns, every u32 array padded to 8
// bytes. Each segment is given as its row array followed by its columns.
func relPayload(numRows int, segs ...[][]uint32) []byte {
	var b []byte
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	u32s := func(vs []uint32) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		for len(b)%8 != 0 {
			b = append(b, 0)
		}
	}
	u64(uint64(numRows))
	words := (numRows + 63) / 64
	u64(uint64(words))
	for w := 0; w < words; w++ {
		live := ^uint64(0)
		if rest := numRows - 64*w; rest < 64 {
			live = 1<<rest - 1
		}
		u64(live)
	}
	u64(uint64(len(segs)))
	for _, sg := range segs {
		u64(uint64(len(sg) - 1))
		u64(uint64(len(sg[0])))
		for _, arr := range sg {
			u32s(arr)
		}
	}
	return b
}

// TestDecodeRelRejectsOtherShapes: a relation payload holds one segment
// whose row array is the identity, or none for a relation with no rows.
// Two segments, or rows numbered otherwise, are corrupt.
func TestDecodeRelRejectsOtherShapes(t *testing.T) {
	for _, ok := range [][]byte{
		relPayload(0),
		relPayload(2, [][]uint32{{0, 1}, {3, 4}, {5, 6}}),
	} {
		if _, err := decodeRel(ok); err != nil {
			t.Fatalf("well-formed payload rejected: %v", err)
		}
	}
	for name, bad := range map[string][]byte{
		"two segments":    relPayload(2, [][]uint32{{0}, {3}}, [][]uint32{{1}, {4}, {5}}),
		"permuted rows":   relPayload(2, [][]uint32{{1, 0}, {3, 4}, {5, 6}}),
		"no segment":      relPayload(2),
		"segment, no row": relPayload(0, [][]uint32{{}, {}}),
	} {
		if _, err := decodeRel(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}
