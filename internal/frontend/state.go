package frontend

import (
	"fmt"

	"repro/internal/checkpoint"
)

// snapshotVersion stamps this package's snapshot section; bump it when
// the serialized field set changes (enforced by wplint's checkpoint
// analyzer).
const snapshotVersion = 1

// SaveState serializes the production cursor, the emulation statistics,
// the wpemul predictor copy (presence-flagged), and the functional CPU
// underneath. The recycled path buffers (wpFree/wpNext) are an
// allocation detail, not state — emulated paths already handed to the
// queue were serialized with their records, and a freshly allocated
// buffer produces identical bytes for the next one. A latched err is
// terminal (the run faulted), so a checkpointed frontend never carries
// one.
func (f *Frontend) SaveState(w *checkpoint.Writer) {
	w.Section("frontend/Frontend", snapshotVersion)
	w.Uint64(f.produced)
	w.Uint64(f.wpEmulations)
	w.Uint64(f.wpEmulated)
	w.Bool(f.pred != nil)
	if f.pred != nil {
		f.pred.SaveState(w)
	}
	f.cpu.SaveState(w)
}

// RestoreState overwrites the frontend state with the snapshot. The
// receiver must be built (New) with the same options: a wpemul/non-
// wpemul mismatch is a configuration error, surfaced as a typed decode
// failure so resume falls back to a fresh run instead of diverging.
func (f *Frontend) RestoreState(r *checkpoint.Reader) error {
	if err := r.Section("frontend/Frontend", snapshotVersion); err != nil {
		return err
	}
	f.produced = r.Uint64()
	f.wpEmulations = r.Uint64()
	f.wpEmulated = r.Uint64()
	hasPred := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if hasPred != (f.pred != nil) {
		return fmt.Errorf("frontend: snapshot wpemul=%v, configuration wpemul=%v", hasPred, f.pred != nil)
	}
	if f.pred != nil {
		if err := f.pred.RestoreState(r); err != nil {
			return err
		}
	}
	return f.cpu.RestoreState(r)
}
