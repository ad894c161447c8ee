package makeflow

// Transaction log: the crash-consistency journal of the workflow
// engine, modelled on real Makeflow's .makeflowlog. Every rule state
// transition is appended as one line; on restart the log is replayed
// to reconstruct DAG progress so completed rules are skipped. The
// format is deliberately line-oriented and append-only so a crash can
// at worst leave a torn final line, which replay discards (recovering
// to the last complete record).
//
// Record format, one per line:
//
//	<state> <rule-id>
//
// where <state> is one of submit|done|fail|local and <rule-id> is the
// DAG node ID (it may contain spaces; everything after the first
// space belongs to the ID). Lines starting with '#' are comments.

import (
	"bytes"
	"io"
	"os"
	"strings"
)

// TxnState is a rule state transition recorded in the log.
type TxnState string

// Rule transitions. A rule is waiting until its submit record; local
// rules complete at the engine without ever reaching a scheduler.
const (
	TxnSubmit TxnState = "submit"
	TxnDone   TxnState = "done"
	TxnFail   TxnState = "fail"
	TxnLocal  TxnState = "local"
)

// LogHeader is the first line of every transaction log.
const LogHeader = "# makeflow txn log v1"

// maxRecordLen bounds one record; a longer line means corruption (no
// rule ID is remotely this large) and replay stops at it.
const maxRecordLen = 1 << 20

// LogSink receives appended records. Implementations must preserve
// append order; they need not be durable (the simulation uses an
// in-memory sink, cmd/wqmaster a file).
type LogSink interface {
	Append(state TxnState, ruleID string) error
}

// MemorySink is an in-memory LogSink for the simulated stack; Bytes
// returns the log so far for replay.
type MemorySink struct {
	buf bytes.Buffer
}

// NewMemorySink returns an empty in-memory log with its header.
func NewMemorySink() *MemorySink {
	s := &MemorySink{}
	s.buf.WriteString(LogHeader + "\n")
	return s
}

// Append writes one record.
func (s *MemorySink) Append(state TxnState, ruleID string) error {
	s.buf.WriteString(string(state))
	s.buf.WriteByte(' ')
	s.buf.WriteString(ruleID)
	s.buf.WriteByte('\n')
	return nil
}

// Bytes returns the accumulated log.
func (s *MemorySink) Bytes() []byte { return s.buf.Bytes() }

// FileSink appends records to a real file — the durable sink the
// cmd/ binaries use. Appends are buffered by the OS only (no
// per-record fsync); a torn tail is tolerated by replay.
type FileSink struct {
	f *os.File
}

// OpenFileSink opens (creating if absent) the log file for appending,
// writing the header into a fresh file.
func OpenFileSink(path string) (*FileSink, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		if _, err := f.WriteString(LogHeader + "\n"); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &FileSink{f: f}, nil
}

// Append writes one record.
func (s *FileSink) Append(state TxnState, ruleID string) error {
	_, err := s.f.WriteString(string(state) + " " + ruleID + "\n")
	return err
}

// Close closes the underlying file.
func (s *FileSink) Close() error { return s.f.Close() }

// Replay is the reconstructed rule progress from a transaction log.
type Replay struct {
	// Done lists rules whose last record is done or local, in
	// first-completion order.
	Done []string
	// Failed lists rules whose last record is fail.
	Failed []string
	// InFlight lists rules submitted but neither done nor failed, in
	// first-submission order.
	InFlight []string
	// Records counts the complete records parsed.
	Records int
	// Truncated reports that a torn/corrupt tail was discarded.
	Truncated bool
}

// ReplayLog parses a transaction log, tolerating a torn tail:
// scanning stops at the first incomplete or malformed record and
// everything before it — the longest consistent prefix — is applied.
// Corruption never yields an error; the error return only reports a
// read failure from r.
func ReplayLog(r io.Reader) (*Replay, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	rep := &Replay{}
	last := make(map[string]TxnState) // each rule's last record
	var order []string                // first-seen rule order
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			// Torn tail: the final record never got its newline.
			rep.Truncated = true
			break
		}
		line := data[:nl]
		data = data[nl+1:]
		if len(line) > maxRecordLen {
			rep.Truncated = true
			break
		}
		s := string(line)
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		st, id, ok := parseRecord(s)
		if !ok {
			// Corrupt record: recover to the consistent prefix before it.
			rep.Truncated = true
			break
		}
		rep.Records++
		if _, seen := last[id]; !seen {
			order = append(order, id)
		}
		last[id] = st
	}
	for _, id := range order {
		switch last[id] {
		case TxnDone, TxnLocal:
			rep.Done = append(rep.Done, id)
		case TxnFail:
			rep.Failed = append(rep.Failed, id)
		case TxnSubmit:
			rep.InFlight = append(rep.InFlight, id)
		}
	}
	return rep, nil
}

// parseRecord splits one line into its state and rule ID.
func parseRecord(line string) (TxnState, string, bool) {
	sp := strings.IndexByte(line, ' ')
	if sp <= 0 || sp == len(line)-1 {
		return "", "", false
	}
	st := TxnState(line[:sp])
	switch st {
	case TxnSubmit, TxnDone, TxnFail, TxnLocal:
		return st, line[sp+1:], true
	}
	return "", "", false
}
