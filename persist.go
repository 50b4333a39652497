package sommelier

import (
	"encoding/json"
	"fmt"
	"io"

	"sommelier/internal/graph"
	"sommelier/internal/index"
)

// engineSnapshot is the serialized engine state (§5.5, persistence): the
// two index structures plus the default-reference table. Models never
// appear here — they live in the repository.
type engineSnapshot struct {
	Version     int                    `json:"version"`
	Semantic    index.SemanticSnapshot `json:"semantic"`
	Resource    index.ResourceSnapshot `json:"resource"`
	DefaultRefs map[string]string      `json:"default_refs,omitempty"`
}

const snapshotVersion = 1

// SaveIndexes writes the engine's index state to w as JSON. A later
// LoadIndexes over the same repository restores the engine without
// re-running the pairwise equivalence analysis.
func (e *Engine) SaveIndexes(w io.Writer) error {
	sem, res, refs := e.cat.Export()
	snap := engineSnapshot{
		Version:     snapshotVersion,
		Semantic:    sem,
		Resource:    res,
		DefaultRefs: refs,
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&snap)
}

// LoadIndexes restores index state previously written by SaveIndexes.
// Restored models are re-resolved from the repository so subsequent
// RegisterContext calls can analyze against them; a model missing from the
// repository fails the load (the snapshot and store are out of sync).
func (e *Engine) LoadIndexes(r io.Reader) error {
	var snap engineSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("sommelier: decoding index snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("sommelier: unsupported snapshot version %d", snap.Version)
	}
	resolve := func(id string) (*graph.Model, error) { return e.store.Load(id) }
	return e.cat.Restore(snap.Semantic, snap.Resource, snap.DefaultRefs, resolve)
}
