// Package snapshot persists frozen stores as mmap-able columnar files.
//
// The engine's frozen representation — one []value.ID column per
// relation position, a row-validity bitmap, and the interner's dense
// value table — is already a near-memcpy serialization format. This
// package writes exactly that physical layout to disk and maps it back: a
// loaded store's ID columns and validity bitmap alias the mapped file
// directly (no per-row decode, no re-interning), so loading costs only the
// derived structures a Freeze would build, while the column data itself
// is paged in lazily by the OS as relations are first touched.
//
// # File layout
//
// A snapshot is a 16-byte header, a sequence of 8-byte-aligned section
// payloads, a table of contents, and a 24-byte footer (all integers
// little-endian):
//
//	header   magic "TDXSNAP\0", format version u32, reserved u32 (zero)
//	sections raw payloads, zero-padded to 8-byte alignment
//	toc      per section: kind, offset, length, CRC-32C, name
//	footer   toc offset u64, toc length u64, toc CRC-32C u32, tail magic u32
//
// Sections carry no inline headers — offsets, lengths, and checksums live
// only in the toc — so the writer streams each payload once through a
// buffered writer with a running CRC and emits the toc last. A file holds
// one meta section (JSON: schema signatures, provenance, chase stats),
// one interner section, and one relation section per relation; an
// optional second interner+relations group persists a retained source
// store alongside a solution, which is what lets a restored incremental
// session keep accepting deltas. docs/SNAPSHOT.md is the normative spec.
//
// # Integrity
//
// Every section is covered by a CRC-32C recorded in the toc, the toc by a
// CRC-32C in the footer, and the footer is located from the end of the
// file — so truncation, bit flips inside any section, and bad
// magic/version all surface as errors from Open/Store, never as a panic
// or a silently corrupt store. Only the zero padding between sections is
// outside any checksum; a flip there cannot alter what is loaded.
// Decoding additionally re-validates every structural invariant
// (storage.NewFrozenStore, value.NewInternerFromValues), so even a file
// with valid checksums but inconsistent contents is rejected.
//
// # Lifetime
//
// On linux a File maps the file with syscall.Mmap; elsewhere it falls
// back to reading the file into memory. Stores returned by Store and
// SourceStore alias the mapping and pin the File, so the mapping stays
// valid while any loaded store is reachable; when the last store and the
// File become unreachable a cleanup unmaps it. Close unmaps immediately
// and must only be called once loaded stores are no longer in use.
package snapshot

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
)

const (
	headerLen = 16
	footerLen = 24

	// version is the format version; readers reject anything else.
	version = 1

	// tailMagic ends every snapshot ("SNAP" little-endian); its absence
	// means a truncated file or not a snapshot at all.
	tailMagic = 0x50414e53
)

// magic opens every snapshot file.
var magic = [8]byte{'T', 'D', 'X', 'S', 'N', 'A', 'P', 0}

// Section kinds. The src* kinds form the optional second store group (a
// retained source persisted alongside a solution).
const (
	secMeta        = 1
	secInterner    = 2
	secRelation    = 3
	secSrcInterner = 4
	secSrcRelation = 5
)

// castagnoli is the CRC-32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is wrapped by every error caused by a malformed, truncated,
// or checksum-failing snapshot, so callers can distinguish "this file is
// bad" from I/O errors.
var ErrCorrupt = errors.New("corrupt snapshot")

// corruptf builds an ErrCorrupt-wrapped error.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("snapshot: %w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// ErrNoSource is returned by SourceStore when the snapshot has no
// embedded source group.
var ErrNoSource = errors.New("snapshot: no source store in file")

// RelSig records one relation's schema signature in the meta section.
type RelSig struct {
	Name  string   `json:"name"`
	Attrs []string `json:"attrs"`
}

// Meta is the snapshot's JSON meta section: enough provenance to
// re-attach a loaded store to the right schema and to restore the stats
// of the run that produced it. All fields are optional; the snapshot
// format itself does not interpret them.
type Meta struct {
	// Kind is free-form provenance ("solution", "instance", ...).
	Kind string `json:"kind,omitempty"`
	// Exchange is the fingerprint of the exchange that produced the
	// snapshot, recorded for provenance and cache keying.
	Exchange string `json:"exchange,omitempty"`
	// Schema describes the main store's relations.
	Schema []RelSig `json:"schema,omitempty"`
	// SourceSchema describes the embedded source group, when present.
	SourceSchema []RelSig `json:"sourceSchema,omitempty"`
	// Stats carries the producing run's statistics verbatim.
	Stats json.RawMessage `json:"stats,omitempty"`
}
