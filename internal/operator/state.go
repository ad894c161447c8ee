package operator

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"hta/internal/monitor"
)

// persistedState is the operator's durable checkpoint: everything the
// feedback loop has *learned* and cannot cheaply re-derive after a
// restart. Pod membership is deliberately absent — it is re-derived
// from the API server on startup (the adoption list in Run), which is
// what makes the resume idempotent instead of replay-based.
type persistedState struct {
	Monitor    monitor.State `json:"monitor"`
	InitTimeNS int64         `json:"init_time_ns"`
	Measured   bool          `json:"measured"`
	Seq        int           `json:"seq"`
	SavedAt    time.Time     `json:"saved_at"`
}

// loadState restores a checkpoint written by a previous incarnation.
// A missing file is a fresh start; an unreadable file is an error (the
// operator should not silently discard learned state it was told to
// keep); an unparseable file, or one whose learned state no run could
// have produced, is tolerated with a warning and ignored, because a
// checkpoint must never be able to brick the control loop.
func (o *Operator) loadState() error {
	if o.cfg.StatePath == "" {
		return nil
	}
	data, err := os.ReadFile(o.cfg.StatePath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("operator: read state: %w", err)
	}
	st, err := decodeState(data)
	if err != nil {
		o.cfg.Logf("operator: ignoring corrupt state %s: %v", o.cfg.StatePath, err)
		return nil
	}
	o.monMu.Lock()
	o.mon.ImportState(st.Monitor)
	o.monMu.Unlock()
	o.mu.Lock()
	o.initTime = time.Duration(st.InitTimeNS)
	o.measured = st.Measured && st.InitTimeNS > 0
	if st.Seq > o.seq {
		o.seq = st.Seq
	}
	o.mu.Unlock()
	o.cfg.Logf("operator: resumed state from %s (%d categories, init %v, seq %d)",
		o.cfg.StatePath, len(st.Monitor.Categories), o.initTime, st.Seq)
	return nil
}

// decodeState parses a checkpoint and rejects learned state no run
// could have produced, so that a damaged file cannot seed the
// estimator with impossible values.
func decodeState(data []byte) (persistedState, error) {
	var st persistedState
	if err := json.Unmarshal(data, &st); err != nil {
		return persistedState{}, err
	}
	if err := st.Monitor.Validate(); err != nil {
		return persistedState{}, err
	}
	return st, nil
}

// saveState checkpoints the learned state atomically: write to a temp
// file, then rename over the previous checkpoint, so a crash at any
// instant leaves either the old or the new state — never a torn mix.
func (o *Operator) saveState() {
	if o.cfg.StatePath == "" {
		return
	}
	mon := o.monitorState()
	o.mu.Lock()
	st := persistedState{
		Monitor:    mon,
		InitTimeNS: int64(o.initTime),
		Measured:   o.measured,
		Seq:        o.seq,
		SavedAt:    time.Now().UTC(),
	}
	o.mu.Unlock()
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		o.cfg.Logf("operator: encode state: %v", err)
		return
	}
	tmp := o.cfg.StatePath + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		o.cfg.Logf("operator: write state: %v", err)
		return
	}
	if err := os.Rename(tmp, o.cfg.StatePath); err != nil {
		o.cfg.Logf("operator: commit state: %v", err)
	}
}
