package tdx

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/instance"
	"repro/internal/schema"
	"repro/internal/snapshot"
	"repro/internal/storage"
	"repro/internal/value"
)

// This file is the public face of internal/snapshot: persisting chased
// solutions to mmap-able columnar snapshot files and loading them back
// without re-running the chase. A loaded solution renders byte-identically
// to the one that was saved — Facts, JSON, Snapshot(t), null family
// numbering, data hashes — because the format serializes the physical
// store layout (row numbering, validity bitmap, interner table in ID
// order) rather than a logical re-encoding. A store's interner table is
// its whole overlay chain in ID order (value.Interner.Values), so a run's
// solution, whose interner is an overlay on its source's, persists as
// one flat table with the same IDs. See docs/SNAPSHOT.md for the format
// itself.

// WriteSnapshot serializes the solution — and the frozen source it was
// chased from, when retained — to w in the tdx snapshot format. The
// solution is frozen first if it is not already (so saving a freshly
// Coalesce()d solution works); freezing mutates lazy structures, so a
// not-yet-frozen solution must not be shared across goroutines during
// the write.
func (s *Solution) WriteSnapshot(w io.Writer) error {
	snap, err := s.snapshotPayload()
	if err != nil {
		return err
	}
	return snapshot.Write(w, snap)
}

// WriteSnapshotFile writes the solution's snapshot to path atomically
// (temp file + rename). See WriteSnapshot.
func (s *Solution) WriteSnapshotFile(path string) error {
	snap, err := s.snapshotPayload()
	if err != nil {
		return err
	}
	return snapshot.WriteFile(path, snap)
}

func (s *Solution) snapshotPayload() (snapshot.Snapshot, error) {
	stats, err := json.Marshal(s.stats)
	if err != nil {
		return snapshot.Snapshot{}, fmt.Errorf("tdx: marshal stats: %w", err)
	}
	s.c.Freeze()
	snap := snapshot.Snapshot{
		Store: s.c.Store(),
		Meta: snapshot.Meta{
			Kind:     "solution",
			Exchange: s.fp,
			Schema:   schemaSig(s.c.Schema()),
			Stats:    stats,
		},
	}
	if s.src != nil {
		s.src.c.Freeze()
		snap.Source = s.src.c.Store()
		snap.Meta.SourceSchema = schemaSig(s.src.c.Schema())
	}
	return snap, nil
}

// LoadSolution loads a solution snapshot previously written by
// WriteSnapshot against this exchange. The returned solution is frozen,
// renders byte-identically to the saved one, and — when the snapshot
// embeds the source group — supports RunDelta (the first delta run
// re-chases from scratch and reports Stats.FallbackFullChase, since the
// chase-layer resume state is not persisted; later deltas are
// incremental again). On linux the file is mapped, not read: relation
// pages fault in on first touch and stay shared between processes, and
// the mapping is released when the solution becomes unreachable. The
// interners of both loaded stores come back frozen, like a Run's, so
// later runs and queries over them intern into overlays.
//
// The snapshot's relations are validated structurally against the
// exchange's target (and source) schema — unknown relations, arity
// mismatches, or non-interval timestamp columns are errors — so loading
// a snapshot against the wrong mapping fails instead of producing
// garbage.
func (ex *Exchange) LoadSolution(path string) (*Solution, error) {
	f, err := snapshot.Open(path)
	if err != nil {
		return nil, err
	}
	sol, err := ex.loadSolution(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("tdx: load %s: %w", path, err)
	}
	return sol, nil
}

func (ex *Exchange) loadSolution(f *snapshot.File) (*Solution, error) {
	st, err := f.Store()
	if err != nil {
		return nil, err
	}
	if err := checkStoreSchema(st, ex.target, "solution"); err != nil {
		return nil, err
	}
	st.Interner().Freeze()
	m := f.Meta()
	sol := &Solution{Instance: Instance{c: instance.FromStore(ex.target, st)}, fp: m.Exchange}
	if len(m.Stats) > 0 {
		if err := json.Unmarshal(m.Stats, &sol.stats); err != nil {
			return nil, fmt.Errorf("stats: %w", err)
		}
	}
	if f.HasSource() {
		src, err := f.SourceStore()
		if err != nil {
			return nil, err
		}
		if err := checkStoreSchema(src, ex.source, "source"); err != nil {
			return nil, err
		}
		src.Interner().Freeze()
		sol.src = &Instance{c: instance.FromStore(ex.source, src)}
	}
	return sol, nil
}

// schemaSig renders a schema into snapshot meta signatures (nil for
// schemaless instances).
func schemaSig(sch *schema.Schema) []snapshot.RelSig {
	if sch == nil {
		return nil
	}
	sigs := make([]snapshot.RelSig, 0, sch.Len())
	for _, name := range sch.Names() {
		r, _ := sch.Relation(name)
		sigs = append(sigs, snapshot.RelSig{Name: r.Name, Attrs: r.Attrs})
	}
	return sigs
}

// checkStoreSchema validates a loaded store against a schema: every
// relation must be declared, every row must have the fact arity (data
// attributes plus the timestamp), and the last column must hold interval
// values — the invariants the rendering and matching layers assume.
func checkStoreSchema(st *storage.Store, sch *schema.Schema, group string) error {
	for _, name := range st.Relations() {
		rel, ok := sch.Relation(name)
		if !ok {
			return fmt.Errorf("%s group: relation %q not in the mapping's schema", group, name)
		}
		r := st.Rel(name)
		if r.NumRows() == 0 {
			continue
		}
		if want := rel.Arity() + 1; r.Arity() != want {
			return fmt.Errorf("%s group: relation %q has rows of arity %d, schema wants %d",
				group, name, r.Arity(), want)
		}
		in := st.Interner()
		for _, id := range r.Cols()[r.Arity()-1] {
			if in.KindOf(id) != value.IntervalVal {
				return fmt.Errorf("%s group: relation %q has a non-interval timestamp column", group, name)
			}
		}
	}
	return nil
}
