package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/stats"
)

// The checkpoint file is append-only JSON Lines: one self-contained
// record per completed cell, flushed as cells finish. Appending (never
// rewriting) means a crash can lose at most the record being written —
// the loader tolerates a torn final line — and a resumed sweep can keep
// appending to the same file. Only successful cells are recorded, so
// resume re-runs exactly the faulted/killed/missing ones. A record is
// resumed only into the cell it was simulated for: it carries the machine
// it ran on (config.GPU.MachineID), so the same app and config label at
// another -sms, -config-file or design re-runs — and the same machine
// watched differently (-audit, -no-fastforward) does not.

// Record is a run written down: the one shape behind every checkpoint line,
// `subcoresim -format json`, and — through its Summary — the text report and
// the CSV row. A checkpoint file is therefore a sweep's full
// machine-readable result, each line what `-format json` prints for that
// cell.
type Record struct {
	// V is the record format version.
	V int `json:"v"`
	// App and Config name the cell.
	App    string `json:"app"`
	Config string `json:"config"`
	// Machine is the config.GPU.MachineID of the device the cell ran on
	// (after Options.Adapt): the identity a snapshot frame carries too.
	Machine string `json:"machine"`
	// Summary is derived from Run when the record is built; a loaded
	// record's is never read, so editing it in the file changes nothing.
	stats.Summary
	// Run is the cell's full statistics.
	Run *stats.Run `json:"run"`
}

// NewRecord writes down run, simulated for the cell (app, config) on the
// machine with that MachineID.
func NewRecord(app, config, machineID string, run *stats.Run) Record {
	return Record{V: ckptVersion, App: app, Config: config, Machine: machineID,
		Summary: stats.Summarize(run), Run: run}
}

// ckptVersion 2 added a digest of the whole configuration; 3 made it the
// machine's alone; 4 renamed it "machine" and added the summary; 5 hashes a
// machine without WarpSize and LSUWidthPerSM. Records of any other version
// are refused.
const ckptVersion = 5

// ckptKey keys completed cells by identity: the labels and what was
// simulated under them.
func ckptKey(app, config, machine string) string { return app + "\x00" + config + "\x00" + machine }

// checkpointWriter streams completed cells to the checkpoint file.
// Safe for concurrent use by sweep workers.
type checkpointWriter struct {
	mu  sync.Mutex
	f   *os.File
	enc *json.Encoder
}

// openCheckpoint opens (creating or appending) the checkpoint file.
// A torn final line left by a crash mid-append is truncated away first:
// appending after a torn tail would concatenate the new record onto the
// partial one, corrupting both — the loader would then reject the file
// outright (a malformed non-final line is fatal) and the whole
// checkpoint, not just one record, would be lost.
func openCheckpoint(path string) (*checkpointWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("harness: open checkpoint: %w", err)
	}
	if err := repairTail(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("harness: repair checkpoint tail: %w", err)
	}
	return &checkpointWriter{f: f, enc: json.NewEncoder(f)}, nil
}

// repairTail truncates f to its last newline-terminated record. A file
// ending in '\n' (or empty) is untouched; a file with no newline at all
// is truncated to empty.
func repairTail(f *os.File) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	if size == 0 {
		return nil
	}
	one := make([]byte, 1)
	if _, err := f.ReadAt(one, size-1); err != nil {
		return err
	}
	if one[0] == '\n' {
		return nil
	}
	// Scan backward in chunks for the last newline before the torn tail.
	const chunk = 64 << 10
	keep, pos := int64(0), size-1
	for pos > 0 {
		n := int64(chunk)
		if n > pos {
			n = pos
		}
		buf := make([]byte, n)
		if _, err := f.ReadAt(buf, pos-n); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
			keep = pos - n + int64(i) + 1
			break
		}
		pos -= n
	}
	return f.Truncate(keep)
}

// Write appends one completed cell. Encoder output ends with a newline,
// so each call emits exactly one JSONL record.
func (w *checkpointWriter) Write(rec Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.enc.Encode(rec)
}

// Close closes the underlying file.
func (w *checkpointWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// loadCheckpoint reads a checkpoint file into completed-cell runs keyed
// by ckptKey. A missing file is an empty checkpoint. A torn final line
// (crash mid-append) is skipped; a malformed line elsewhere is an error,
// since it means the file is not a checkpoint at all.
func loadCheckpoint(path string) (map[string]*stats.Run, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return map[string]*stats.Run{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("harness: open checkpoint: %w", err)
	}
	defer f.Close()
	return readCheckpoint(f)
}

func readCheckpoint(r io.Reader) (map[string]*stats.Run, error) {
	out := map[string]*stats.Run{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	lineNo := 0
	var pendingErr error
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		// A parse failure is only fatal if more lines follow: the final
		// line may be a torn append from a crash.
		if pendingErr != nil {
			return nil, pendingErr
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			pendingErr = fmt.Errorf("harness: checkpoint line %d: %w", lineNo, err)
			continue
		}
		if rec.V != ckptVersion {
			return nil, fmt.Errorf("harness: checkpoint line %d: unsupported version %d (this build reads and writes %d; start a new file)", lineNo, rec.V, ckptVersion)
		}
		if rec.Run == nil {
			pendingErr = fmt.Errorf("harness: checkpoint line %d: record without run", lineNo)
			continue
		}
		// Last record wins: a cell re-run after a fault overwrites the
		// earlier entry.
		out[ckptKey(rec.App, rec.Config, rec.Machine)] = rec.Run
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("harness: read checkpoint: %w", err)
	}
	return out, nil
}
