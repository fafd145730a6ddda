package snapshot

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/storage"
	"repro/internal/value"
)

// Snapshot is what Write persists: a frozen store, an optional frozen
// source store (so a solution snapshot can resume incremental sessions),
// and the meta section.
type Snapshot struct {
	Store  *storage.Store
	Source *storage.Store
	Meta   Meta
}

// Write streams snap to w in the format described in the package comment
// and docs/SNAPSHOT.md. Both stores must be frozen: the writer serializes
// their physical layout (storage.Rel.Dump), which is only stable — and
// only legal to read — once frozen. Each section is written exactly once
// through a buffered writer with a running CRC-32C; the table of contents
// and footer are emitted last, so Write never seeks and w can be a plain
// pipe or socket.
func Write(w io.Writer, snap Snapshot) error {
	if snap.Store == nil {
		return fmt.Errorf("snapshot: Write: nil store")
	}
	if !snap.Store.Frozen() {
		return fmt.Errorf("snapshot: Write: store is not frozen")
	}
	if snap.Source != nil && !snap.Source.Frozen() {
		return fmt.Errorf("snapshot: Write: source store is not frozen")
	}
	metaJSON, err := json.Marshal(snap.Meta)
	if err != nil {
		return fmt.Errorf("snapshot: Write: meta: %w", err)
	}

	cw := &countingWriter{w: bufio.NewWriterSize(w, 1<<16)}
	var hdr [headerLen]byte
	copy(hdr[:], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:], version)
	cw.write(hdr[:])

	var toc []tocEntry
	section := func(kind uint32, name string, body func(*sectionWriter) error) error {
		cw.align8()
		sw := &sectionWriter{cw: cw}
		off := cw.n
		if err := body(sw); err != nil {
			return err
		}
		toc = append(toc, tocEntry{kind: kind, name: name, off: off, len: cw.n - off, crc: sw.crc})
		return cw.err
	}

	if err := section(secMeta, "", func(sw *sectionWriter) error {
		sw.bytes(metaJSON)
		return nil
	}); err != nil {
		return err
	}
	if err := writeStore(section, snap.Store, secInterner, secRelation); err != nil {
		return err
	}
	if snap.Source != nil {
		if err := writeStore(section, snap.Source, secSrcInterner, secSrcRelation); err != nil {
			return err
		}
	}

	tocOff := cw.n
	tb := encodeTOC(toc)
	cw.write(tb)
	var foot [footerLen]byte
	binary.LittleEndian.PutUint64(foot[0:], tocOff)
	binary.LittleEndian.PutUint64(foot[8:], uint64(len(tb)))
	binary.LittleEndian.PutUint32(foot[16:], crc32.Checksum(tb, castagnoli))
	binary.LittleEndian.PutUint32(foot[20:], tailMagic)
	cw.write(foot[:])
	if cw.err != nil {
		return fmt.Errorf("snapshot: Write: %w", cw.err)
	}
	return cw.w.Flush()
}

// WriteFile writes snap to path atomically: the bytes land in a temp file
// in the same directory, synced and renamed over path, so readers never
// observe a half-written snapshot and a crash leaves at worst a stale
// *.tmp behind.
func WriteFile(path string, snap Snapshot) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".*.tmp")
	if err != nil {
		return fmt.Errorf("snapshot: WriteFile: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := Write(tmp, snap); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: WriteFile: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: WriteFile: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("snapshot: WriteFile: %w", err)
	}
	return nil
}

// writeStore emits one store group: its interner table, then one section
// per relation in lexicographic name order.
func writeStore(section func(uint32, string, func(*sectionWriter) error) error, st *storage.Store, internKind, relKind uint32) error {
	if err := section(internKind, "", func(sw *sectionWriter) error {
		return writeInterner(sw, st.Interner().Values())
	}); err != nil {
		return err
	}
	for _, name := range st.Relations() {
		d := st.Rel(name).Dump()
		if err := section(relKind, name, func(sw *sectionWriter) error {
			return writeRel(sw, d)
		}); err != nil {
			return fmt.Errorf("snapshot: Write: relation %q: %w", name, err)
		}
	}
	return nil
}

// writeInterner serializes the value table in ID order: count, then one
// kind-discriminated record per value.
func writeInterner(sw *sectionWriter, vals []value.Value) error {
	sw.u64(uint64(len(vals)))
	for i, v := range vals {
		sw.u8(byte(v.K))
		switch v.K {
		case value.Const:
			if uint64(len(v.Str)) > 1<<32-1 {
				return fmt.Errorf("snapshot: Write: constant %d longer than 4GiB", i)
			}
			sw.u32(uint32(len(v.Str)))
			sw.bytes([]byte(v.Str))
		case value.Null:
			sw.u64(v.ID)
			sw.u64(uint64(v.TP))
		case value.AnnNull:
			sw.u64(v.ID)
			sw.u64(uint64(v.Iv.Start))
			sw.u64(uint64(v.Iv.End))
		case value.IntervalVal:
			sw.u64(uint64(v.Iv.Start))
			sw.u64(uint64(v.Iv.End))
		default:
			return fmt.Errorf("snapshot: Write: value %d has unserializable kind %v", i, v.K)
		}
	}
	return nil
}

// writeRel serializes one relation's physical dump: row count, validity
// bitmap, then one segment — the arity, the identity row-number array,
// and the columns — or none for a relation with no rows. The u32 arrays
// are padded to 8 bytes so every array in the file is 8-byte aligned and
// can alias the mapping directly on load.
func writeRel(sw *sectionWriter, d storage.RelDump) error {
	sw.u64(uint64(d.NumRows))
	sw.u64(uint64(len(d.Live)))
	sw.u64s(d.Live)
	if d.NumRows == 0 {
		sw.u64(0)
		return nil
	}
	sw.u64(1)
	sw.u64(uint64(len(d.Cols)))
	sw.u64(uint64(d.NumRows))
	for row := 0; row < d.NumRows; row++ {
		sw.u32(uint32(row))
	}
	sw.pad8()
	for _, col := range d.Cols {
		sw.ids(col)
		sw.pad8()
	}
	return nil
}

// tocEntry is one table-of-contents record.
type tocEntry struct {
	kind uint32
	name string
	off  uint64
	len  uint64
	crc  uint32
}

// encodeTOC renders the table of contents: entry count, then per entry
// kind, offset, length, CRC-32C, and length-prefixed name.
func encodeTOC(toc []tocEntry) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, uint32(len(toc)))
	for _, e := range toc {
		b = binary.LittleEndian.AppendUint32(b, e.kind)
		b = binary.LittleEndian.AppendUint64(b, e.off)
		b = binary.LittleEndian.AppendUint64(b, e.len)
		b = binary.LittleEndian.AppendUint32(b, e.crc)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(e.name)))
		b = append(b, e.name...)
	}
	return b
}

// countingWriter tracks the absolute file offset across the buffered
// writer, which is how section offsets are known without seeking.
type countingWriter struct {
	w   *bufio.Writer
	n   uint64
	err error
}

func (c *countingWriter) write(p []byte) {
	if c.err != nil {
		return
	}
	_, c.err = c.w.Write(p)
	c.n += uint64(len(p))
}

// align8 zero-pads to the next 8-byte boundary (between sections; these
// pad bytes are outside every checksum).
func (c *countingWriter) align8() {
	var zero [8]byte
	if rem := c.n % 8; rem != 0 {
		c.write(zero[:8-rem])
	}
}

// sectionWriter writes one section's payload, folding every byte —
// including intra-section padding — into the section's running CRC-32C.
type sectionWriter struct {
	cw  *countingWriter
	crc uint32
	buf [8]byte
}

func (s *sectionWriter) bytes(p []byte) {
	s.crc = crc32.Update(s.crc, castagnoli, p)
	s.cw.write(p)
}

func (s *sectionWriter) u8(v uint8) {
	s.buf[0] = v
	s.bytes(s.buf[:1])
}

func (s *sectionWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(s.buf[:4], v)
	s.bytes(s.buf[:4])
}

func (s *sectionWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(s.buf[:8], v)
	s.bytes(s.buf[:8])
}

// pad8 zero-pads the section to an 8-byte boundary; the pad bytes are
// part of the section and covered by its checksum.
func (s *sectionWriter) pad8() {
	var zero [8]byte
	if rem := s.cw.n % 8; rem != 0 {
		s.bytes(zero[:8-rem])
	}
}

// u64s writes a []uint64 array in bulk.
func (s *sectionWriter) u64s(words []uint64) {
	var chunk [4096]byte
	for len(words) > 0 {
		n := min(len(words), len(chunk)/8)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(chunk[8*i:], words[i])
		}
		s.bytes(chunk[:8*n])
		words = words[n:]
	}
}

// ids writes a []value.ID column in bulk.
func (s *sectionWriter) ids(col []value.ID) {
	var chunk [4096]byte
	for len(col) > 0 {
		n := min(len(col), len(chunk)/4)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(chunk[4*i:], uint32(col[i]))
		}
		s.bytes(chunk[:4*n])
		col = col[n:]
	}
}
