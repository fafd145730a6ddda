package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"sync"
	"unsafe"

	"repro/internal/interval"
	"repro/internal/storage"
	"repro/internal/value"
)

// hostLittleEndian gates the zero-copy array views: on a little-endian
// host the on-disk u32/u64 arrays are exactly the in-memory layout and
// can alias the mapping; elsewhere the decoder falls back to copying.
var hostLittleEndian = func() bool {
	var probe uint16 = 1
	return *(*byte)(unsafe.Pointer(&probe)) == 1
}()

// section is one parsed table-of-contents entry.
type section struct {
	kind uint32
	name string
	off  uint64
	len  uint64
	crc  uint32
}

// File is an opened snapshot. Open parses only the header, footer, table
// of contents, and meta section — a few hundred bytes regardless of file
// size; relation and interner payloads are checksummed and decoded only
// when Store or SourceStore materializes them (once; the result is
// memoized), and under mmap the column bytes themselves are faulted in by
// the OS on first touch. A File is safe for concurrent use after Open.
type File struct {
	m      *mapping
	meta   Meta
	secs   []section
	hasSrc bool

	mu       sync.Mutex
	store    *storage.Store
	storeErr error
	storeSet bool
	src      *storage.Store
	srcErr   error
	srcSet   bool
}

// Open opens a snapshot file. On linux the file is mapped read-only with
// syscall.Mmap; elsewhere it is read into memory. The mapping is unmapped
// by Close, or — because loaded stores pin the File — by a runtime
// cleanup once neither the File nor any store loaded from it is
// reachable.
func Open(path string) (*File, error) {
	m, err := mapFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: open %s: %w", path, err)
	}
	f, err := newFile(m)
	if err != nil {
		m.close()
		return nil, fmt.Errorf("snapshot: open %s: %w", path, err)
	}
	if m.mapped {
		runtime.AddCleanup(f, func(mp *mapping) { mp.close() }, m)
	}
	return f, nil
}

// OpenBytes parses an in-memory snapshot. The data is aliased, not
// copied; the caller must not mutate it while the File or any store
// loaded from it is in use.
func OpenBytes(data []byte) (*File, error) {
	f, err := newFile(&mapping{data: data})
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return f, nil
}

// Close releases the mapping. Stores previously returned by Store or
// SourceStore alias the mapped memory and must no longer be used; callers
// that hand loaded stores onward should skip Close and let the runtime
// cleanup unmap when the stores are dropped.
func (f *File) Close() error { return f.m.close() }

// Meta returns the parsed meta section.
func (f *File) Meta() Meta { return f.meta }

// HasSource reports whether the snapshot embeds a source store group.
func (f *File) HasSource() bool { return f.hasSrc }

// Store materializes the main store: per-section checksum verification,
// interner rebuild, and storage.NewFrozenStore over array views into the
// mapping. The result is memoized; the returned store is frozen,
// shareable, and pins the File.
func (f *File) Store() (*storage.Store, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.storeSet {
		f.store, f.storeErr = f.materialize(secInterner, secRelation)
		f.storeSet = true
	}
	return f.store, f.storeErr
}

// SourceStore materializes the embedded source group, or ErrNoSource when
// the snapshot has none.
func (f *File) SourceStore() (*storage.Store, error) {
	if !f.hasSrc {
		return nil, ErrNoSource
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.srcSet {
		f.src, f.srcErr = f.materialize(secSrcInterner, secSrcRelation)
		f.srcSet = true
	}
	return f.src, f.srcErr
}

// newFile validates the envelope — magic, version, footer, toc checksum,
// section bounds — and parses the meta section. Payload checksums are
// deferred to materialization.
func newFile(m *mapping) (*File, error) {
	data := m.bytes()
	if len(data) < headerLen+footerLen {
		return nil, corruptf("%d bytes is shorter than header+footer", len(data))
	}
	if !bytes.Equal(data[:8], magic[:]) {
		return nil, corruptf("bad magic %q", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != version {
		return nil, corruptf("unsupported format version %d (want %d)", v, version)
	}
	foot := data[len(data)-footerLen:]
	if tm := binary.LittleEndian.Uint32(foot[20:]); tm != tailMagic {
		return nil, corruptf("bad tail magic %#x (truncated file?)", tm)
	}
	tocOff := binary.LittleEndian.Uint64(foot[0:])
	tocLen := binary.LittleEndian.Uint64(foot[8:])
	tocCRC := binary.LittleEndian.Uint32(foot[16:])
	end := uint64(len(data) - footerLen)
	if tocOff < headerLen || tocOff > end || end-tocOff != tocLen {
		return nil, corruptf("toc bounds [%d,+%d) inconsistent with file size %d", tocOff, tocLen, len(data))
	}
	tb := data[tocOff:end]
	if got := crc32.Checksum(tb, castagnoli); got != tocCRC {
		return nil, corruptf("toc checksum mismatch (%#x, want %#x)", got, tocCRC)
	}
	secs, err := parseTOC(tb, tocOff)
	if err != nil {
		return nil, err
	}

	f := &File{m: m, secs: secs}
	var metaSec *section
	counts := map[uint32]int{}
	names := map[[2]uint32]map[string]bool{}
	for i := range secs {
		s := &secs[i]
		counts[s.kind]++
		switch s.kind {
		case secMeta:
			metaSec = s
		case secRelation, secSrcRelation:
			key := [2]uint32{s.kind, 0}
			if names[key] == nil {
				names[key] = map[string]bool{}
			}
			if names[key][s.name] {
				return nil, corruptf("two %q sections for relation %q", kindName(s.kind), s.name)
			}
			names[key][s.name] = true
		}
	}
	if counts[secMeta] != 1 || counts[secInterner] != 1 {
		return nil, corruptf("want exactly one meta and one interner section, have %d and %d", counts[secMeta], counts[secInterner])
	}
	if counts[secSrcInterner] > 1 {
		return nil, corruptf("%d source interner sections", counts[secSrcInterner])
	}
	if counts[secSrcRelation] > 0 && counts[secSrcInterner] == 0 {
		return nil, corruptf("source relations without a source interner")
	}
	f.hasSrc = counts[secSrcInterner] == 1

	body, err := sectionBody(data, *metaSec)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(body, &f.meta); err != nil {
		return nil, corruptf("meta section: %v", err)
	}
	return f, nil
}

// parseTOC decodes the table of contents, bounds-checking every entry
// against the payload region [headerLen, tocOff).
func parseTOC(tb []byte, tocOff uint64) ([]section, error) {
	r := &reader{b: tb}
	count := r.u32()
	if uint64(count) > uint64(len(tb))/28 {
		return nil, corruptf("toc claims %d sections in %d bytes", count, len(tb))
	}
	secs := make([]section, 0, count)
	for i := uint32(0); i < count; i++ {
		var s section
		s.kind = r.u32()
		s.off = r.u64()
		s.len = r.u64()
		s.crc = r.u32()
		nameLen := r.u32()
		name := r.take(uint64(nameLen))
		if r.err != nil {
			return nil, corruptf("toc entry %d: %v", i, r.err)
		}
		s.name = string(name)
		switch s.kind {
		case secMeta, secInterner, secRelation, secSrcInterner, secSrcRelation:
		default:
			return nil, corruptf("toc entry %d: unknown section kind %d", i, s.kind)
		}
		if s.off%8 != 0 || s.off < headerLen || s.len > tocOff || s.off > tocOff-s.len {
			return nil, corruptf("toc entry %d: section bounds [%d,+%d) outside payload region", i, s.off, s.len)
		}
		secs = append(secs, s)
	}
	if r.off != len(tb) {
		return nil, corruptf("%d trailing bytes after toc entries", len(tb)-r.off)
	}
	return secs, nil
}

// sectionBody returns a section's payload after verifying its checksum.
func sectionBody(data []byte, s section) ([]byte, error) {
	body := data[s.off : s.off+s.len]
	if got := crc32.Checksum(body, castagnoli); got != s.crc {
		return nil, corruptf("%s section %q: checksum mismatch (%#x, want %#x)", kindName(s.kind), s.name, got, s.crc)
	}
	return body, nil
}

// materialize decodes one store group (interner + relations) into a
// frozen store whose columns alias the mapping.
func (f *File) materialize(internKind, relKind uint32) (*storage.Store, error) {
	data := f.m.bytes()
	if data == nil {
		return nil, fmt.Errorf("snapshot: use of closed File")
	}
	var in *value.Interner
	rels := make(map[string]storage.RelDump)
	for _, s := range f.secs {
		switch s.kind {
		case internKind:
			body, err := sectionBody(data, s)
			if err != nil {
				return nil, err
			}
			if in, err = decodeInterner(body); err != nil {
				return nil, err
			}
		case relKind:
			body, err := sectionBody(data, s)
			if err != nil {
				return nil, err
			}
			d, err := decodeRel(body)
			if err != nil {
				return nil, fmt.Errorf("relation %q: %w", s.name, err)
			}
			rels[s.name] = d
		}
	}
	st, err := storage.NewFrozenStore(in, rels)
	if err != nil {
		// Checksums passed but the contents are structurally inconsistent:
		// still a corrupt file, never a panic.
		return nil, fmt.Errorf("snapshot: %w: %v", ErrCorrupt, err)
	}
	if f.m.mapped {
		st.Pin(f)
	}
	return st, nil
}

// decodeInterner rebuilds the value table. Constant strings are copied
// out of the mapping (value.Value holds them long-term); everything else
// is fixed-width.
func decodeInterner(b []byte) (*value.Interner, error) {
	r := &reader{b: b}
	count := r.u64()
	// Every record is at least 5 bytes (kind + const length), so a count
	// beyond len/5 cannot be honest — reject before allocating.
	if count > uint64(len(b))/5 {
		return nil, corruptf("interner claims %d values in %d bytes", count, len(b))
	}
	vals := make([]value.Value, 0, count)
	// One string copy of the whole section serves every constant:
	// substrings of a Go string share its backing array, so each Const
	// below is an allocation-free slice of this copy instead of its own
	// heap string. The section is a fraction of the snapshot and the
	// interner keeps it alive anyway through the constants themselves.
	str := string(b)
	for i := uint64(0); i < count; i++ {
		switch k := value.Kind(r.u8()); k {
		case value.Const:
			n := r.u32()
			off := r.off
			r.take(uint64(n))
			if r.err == nil {
				vals = append(vals, value.NewConst(str[off:off+int(n)]))
			}
		case value.Null:
			fam := r.u64()
			tp := interval.Time(r.u64())
			vals = append(vals, value.Value{K: value.Null, ID: fam, TP: tp})
		case value.AnnNull:
			fam := r.u64()
			iv := interval.Interval{Start: interval.Time(r.u64()), End: interval.Time(r.u64())}
			vals = append(vals, value.NewAnnNull(fam, iv))
		case value.IntervalVal:
			iv := interval.Interval{Start: interval.Time(r.u64()), End: interval.Time(r.u64())}
			vals = append(vals, value.NewInterval(iv))
		default:
			return nil, corruptf("interner value %d: unknown kind %d", i, k)
		}
		if r.err != nil {
			return nil, corruptf("interner value %d: %v", i, r.err)
		}
	}
	if r.off != len(b) {
		return nil, corruptf("%d trailing bytes after interner table", len(b)-r.off)
	}
	in, err := value.NewInternerFromValues(vals)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return in, nil
}

// decodeRel decodes one relation payload into a storage.RelDump whose
// column and bitmap slices view the payload in place (zero-copy on
// little-endian hosts). A relation has one segment, whose row array is
// the identity 0, 1, …, n−1, or none when it has no rows; any other shape
// is corrupt. Structural validation beyond shape — ID ranges, live bits,
// duplicate rows — happens in storage.NewFrozenStore.
func decodeRel(b []byte) (storage.RelDump, error) {
	var d storage.RelDump
	r := &reader{b: b}
	numRows := r.u64()
	if numRows > math.MaxInt32 {
		return d, corruptf("row count %d out of range", numRows)
	}
	liveWords := r.u64()
	if liveWords != (numRows+63)/64 {
		return d, corruptf("validity bitmap of %d words for %d rows", liveWords, numRows)
	}
	d.NumRows = int(numRows)
	d.Live = r.u64view(liveWords)
	segCount := r.u64()
	if r.err != nil {
		return d, corruptf("%v", r.err)
	}
	if segCount != min(numRows, 1) {
		return d, corruptf("%d segments for %d rows (want one, or none for no rows)", segCount, numRows)
	}
	if segCount == 1 {
		arity := r.u64()
		nrows := r.u64()
		if r.err != nil {
			return d, corruptf("segment: %v", r.err)
		}
		if arity < 1 || arity > uint64(len(b))/4 {
			return d, corruptf("segment: arity %d", arity)
		}
		if nrows != numRows {
			return d, corruptf("segment holds %d rows, relation declares %d", nrows, numRows)
		}
		for i, row := range r.u32view(nrows) {
			if uint64(row) != uint64(i) {
				return d, corruptf("segment row %d is numbered %d", i, row)
			}
		}
		r.pad8()
		d.Cols = make([][]value.ID, arity)
		for p := range d.Cols {
			d.Cols[p] = idView(r.u32view(nrows))
			r.pad8()
		}
	}
	if r.err != nil {
		return d, corruptf("%v", r.err)
	}
	if r.off != len(b) {
		return d, corruptf("%d trailing bytes after segments", len(b)-r.off)
	}
	return d, nil
}

// idView reinterprets a []uint32 as []value.ID (same underlying type).
func idView(u []uint32) []value.ID {
	if len(u) == 0 {
		return nil
	}
	return unsafe.Slice((*value.ID)(unsafe.Pointer(&u[0])), len(u))
}

// reader is a bounds-checked cursor over one byte region. Every accessor
// checks remaining length and latches the first error; callers test
// r.err once per record instead of after every field.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(need uint64) {
	if r.err == nil {
		r.err = fmt.Errorf("need %d bytes at offset %d, have %d", need, r.off, len(r.b)-r.off)
	}
}

func (r *reader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail(n)
		return nil
	}
	p := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return p
}

func (r *reader) u8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *reader) u32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (r *reader) u64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// pad8 skips to the next 8-byte boundary.
func (r *reader) pad8() {
	if rem := r.off % 8; rem != 0 {
		r.take(uint64(8 - rem))
	}
}

// u32view returns n uint32s, aliasing the region when the host is
// little-endian and the bytes are 4-aligned, copying otherwise.
func (r *reader) u32view(n uint64) []uint32 {
	if n > uint64(len(r.b)) { // pre-multiply overflow guard
		r.fail(n)
		return nil
	}
	p := r.take(4 * n)
	if p == nil || n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&p[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&p[0])), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(p[4*i:])
	}
	return out
}

// u64view is u32view for uint64 words (8-byte alignment required to
// alias).
func (r *reader) u64view(n uint64) []uint64 {
	if n > uint64(len(r.b)) { // pre-multiply overflow guard
		r.fail(n)
		return nil
	}
	p := r.take(8 * n)
	if p == nil || n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&p[0]))%8 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&p[0])), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(p[8*i:])
	}
	return out
}

// kindName names a section kind for error messages.
func kindName(kind uint32) string {
	switch kind {
	case secMeta:
		return "meta"
	case secInterner:
		return "interner"
	case secRelation:
		return "relation"
	case secSrcInterner:
		return "source interner"
	case secSrcRelation:
		return "source relation"
	}
	return fmt.Sprintf("kind-%d", kind)
}

// mapping owns the backing bytes of a File: either an mmap region
// (mapped=true) or plain heap memory. close is idempotent and safe to
// race with a runtime cleanup.
type mapping struct {
	mu     sync.Mutex
	data   []byte
	mapped bool
	closed bool
}

func (m *mapping) bytes() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	return m.data
}

func (m *mapping) close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	data := m.data
	m.data = nil
	if m.mapped && data != nil {
		return munmap(data)
	}
	return nil
}
