// Package store persists the scheduler daemon's input history: an
// append-only JSONL write-ahead log of every state-changing event
// (admissions, link failures/repairs, epoch boundaries), compacted
// periodically into a snapshot file.
//
// The controller is deterministic: replaying the same event sequence
// through a fresh controller reproduces byte-identical state. The store
// therefore never serializes controller internals (LP bases, committed
// plans); a "snapshot" is the compacted event prefix, atomically renamed
// into place, and recovery is
//
//	replay(snapshot.jsonl) ++ replay(wal.jsonl)
//
// which equals the original event sequence. Appends are fsynced before
// they are acknowledged, so an acknowledged admission survives a crash; a
// torn final WAL line (crash mid-write) is detected on open and truncated
// away, which can only lose the single unacknowledged event.
package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/telemetry"
)

// Package-level instruments on the default telemetry registry.
var (
	telAppends = telemetry.Default().Counter("wal_appends_total",
		"Entries appended to the write-ahead log.")
	telFsync = telemetry.Default().Histogram("wal_fsync_seconds",
		"Wall time of one WAL append fsync.", nil)
	telSnapshots = telemetry.Default().Counter("wal_snapshots_total",
		"WAL compactions into the snapshot file.")
	telReplayed = telemetry.Default().Counter("wal_replayed_entries_total",
		"Entries replayed from snapshot+WAL at open.")
	telTornTails = telemetry.Default().Counter("wal_torn_tails_total",
		"Torn trailing WAL lines truncated at open.")
	telWALBytes = telemetry.Default().Gauge("wal_live_bytes",
		"Bytes in the live (uncompacted) WAL segment.")
)

// EntryType discriminates WAL entries.
type EntryType string

// WAL entry types. Values are part of the on-disk format.
const (
	// EntrySubmit: one job admission request, with the fully-resolved job
	// (server-assigned ID and arrival included) so replay is exact.
	// Replay-only: written by older binaries, which admitted one job per
	// entry; the server now writes EntryBatchSubmit.
	EntrySubmit EntryType = "submit"
	// EntryBatchSubmit: one admission intake drain — every job accepted
	// in one batch, fully resolved, acknowledged under a single fsync.
	// Replay applies the jobs in order, so a batch of N is equivalent to
	// N submit entries; the batch form exists so the durability cost of
	// an intake drain is one write + one fsync regardless of N, and so
	// cluster followers replicate the batch boundary intact.
	EntryBatchSubmit EntryType = "submit_batch"
	// EntryLinkDown: a link failure at virtual time T.
	EntryLinkDown EntryType = "link_down"
	// EntryLinkUp: a link repair at virtual time T.
	EntryLinkUp EntryType = "link_up"
	// EntryEpoch: one scheduling instant (controller RunEpoch).
	EntryEpoch EntryType = "epoch"
	// EntryAnomaly: a flight-recorder dump was written (Reason names the
	// trigger, Path the dump file). Anomaly entries are durable history
	// only — replay skips them, since the dump itself already captured
	// the state and the controller's audit records regenerate
	// deterministically from the other entries.
	EntryAnomaly EntryType = "anomaly"
	// EntryLeadership: a cluster leadership change (Node took over with
	// fencing token Token; Reason is "elected" or "deposed"). Like
	// anomaly entries these are informational history — replay skips
	// them — but they make every failover auditable from the log alone,
	// and the flight recorder can dump around them.
	EntryLeadership EntryType = "leadership"
)

// JobEntry is the job wire format inside a submit entry, mirroring the
// field names of the job package's JSON interchange format.
type JobEntry struct {
	ID      int     `json:"id"`
	Arrival float64 `json:"arrival"`
	Src     int     `json:"src"`
	Dst     int     `json:"dst"`
	Size    float64 `json:"size"`
	Start   float64 `json:"start"`
	End     float64 `json:"end"`
	// Admission metadata (absent pre-admission entries decode to the
	// anonymous tenant and the standard class). Replay feeds these back
	// into the admission policy so quota accounting and class weights —
	// and therefore schedules — reproduce exactly.
	Tenant   string `json:"tenant,omitempty"`
	Priority string `json:"priority,omitempty"`
}

// NewJobEntry converts a job to its WAL form.
func NewJobEntry(j job.Job) *JobEntry {
	return &JobEntry{
		ID: int(j.ID), Arrival: j.Arrival,
		Src: int(j.Src), Dst: int(j.Dst),
		Size: j.Size, Start: j.Start, End: j.End,
	}
}

// Job converts the WAL form back to a job.
func (e *JobEntry) Job() job.Job {
	return job.Job{
		ID: job.ID(e.ID), Arrival: e.Arrival,
		Src: netgraph.NodeID(e.Src), Dst: netgraph.NodeID(e.Dst),
		Size: e.Size, Start: e.Start, End: e.End,
	}
}

// Entry is one WAL record: a monotonically increasing sequence number,
// the event type, and the type's payload.
type Entry struct {
	Seq    uint64     `json:"seq"`
	Type   EntryType  `json:"type"`
	Time   float64    `json:"t,omitempty"`      // link events: virtual event time
	Edge   int        `json:"edge"`             // link events: failed/repaired edge
	Job    *JobEntry  `json:"job,omitempty"`    // submit entries
	Jobs   []JobEntry `json:"jobs,omitempty"`   // batch-submit entries: accepted jobs in intake order
	Reason string     `json:"reason,omitempty"` // anomaly entries: dump trigger; leadership entries: elected/deposed
	Path   string     `json:"path,omitempty"`   // anomaly entries: dump file
	Node   string     `json:"node,omitempty"`   // leadership entries: node ID
	Token  uint64     `json:"token,omitempty"`  // leadership entries: fencing token
}

const (
	walName  = "wal.jsonl"
	snapName = "snapshot.jsonl"
)

// Log is the durable event log: a live WAL segment plus a snapshot
// holding the compacted prefix. Methods are not safe for concurrent use;
// the serving layer serializes all writes behind its own mutex.
type Log struct {
	dir           string
	snapshotEvery int
	wal           *os.File
	seq           uint64
	segEntries    int   // entries in the live WAL segment
	segBytes      int64 // bytes in the live WAL segment
}

// Open opens (or creates) the log in dir and returns the replayed event
// history, snapshot first. snapshotEvery sets how many live WAL entries
// trigger a compaction; 0 or negative disables compaction.
//
// A torn final WAL line — the tell-tale of a crash mid-append — is
// truncated away. Any other decode error is corruption and fails the
// open; the snapshot is written atomically, so it must always parse.
func Open(dir string, snapshotEvery int) (*Log, []Entry, error) {
	if dir == "" {
		return nil, nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	l := &Log{dir: dir, snapshotEvery: snapshotEvery}

	var entries []Entry
	snapEntries, _, err := readEntries(filepath.Join(dir, snapName), false)
	if err != nil {
		return nil, nil, fmt.Errorf("store: snapshot: %w", err)
	}
	entries = append(entries, snapEntries...)

	walPath := filepath.Join(dir, walName)
	walEntries, goodOffset, err := readEntries(walPath, true)
	if err != nil {
		return nil, nil, fmt.Errorf("store: wal: %w", err)
	}
	// A crash between compaction's snapshot rename and WAL truncate
	// leaves the WAL as a stale copy of the snapshot's tail. Compaction
	// folds the whole segment at once, so any overlap means the entire
	// segment is already in the snapshot: drop it.
	if len(walEntries) > 0 && len(snapEntries) > 0 &&
		walEntries[0].Seq <= snapEntries[len(snapEntries)-1].Seq {
		walEntries, goodOffset = nil, 0
	}
	entries = append(entries, walEntries...)

	for i, e := range entries {
		if e.Seq != uint64(i)+1 {
			return nil, nil, fmt.Errorf("store: entry %d has seq %d, want %d (log corrupt)", i, e.Seq, i+1)
		}
	}

	_, statErr := os.Stat(walPath)
	wal, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	if os.IsNotExist(statErr) {
		// The segment file was just created: fsync the directory so the
		// new name itself survives power loss, not only its contents.
		syncDir(dir)
	}
	// Drop a torn trailing line before appending anything after it.
	if fi, err := wal.Stat(); err == nil && fi.Size() > goodOffset {
		telTornTails.Inc()
		if err := wal.Truncate(goodOffset); err != nil {
			wal.Close()
			return nil, nil, fmt.Errorf("store: truncate torn wal tail: %w", err)
		}
	}
	if _, err := wal.Seek(0, io.SeekEnd); err != nil {
		wal.Close()
		return nil, nil, fmt.Errorf("store: %w", err)
	}

	l.wal = wal
	l.seq = uint64(len(entries))
	l.segEntries = len(walEntries)
	l.segBytes = goodOffset
	telReplayed.Add(int64(len(entries)))
	telWALBytes.Set(float64(l.segBytes))
	return l, entries, nil
}

// readEntries decodes a JSONL file. With tolerateTail, a final line that
// does not decode is treated as torn and skipped; the returned offset is
// the end of the last good line. A missing file yields no entries.
func readEntries(path string, tolerateTail bool) ([]Entry, int64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()

	var entries []Entry
	var offset int64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		var e Entry
		if err := json.Unmarshal(raw, &e); err != nil {
			if tolerateTail {
				// Only the final line may be torn; a bad line mid-file is
				// corruption. Peek for more content.
				if sc.Scan() {
					return nil, 0, fmt.Errorf("%s line %d: %w", path, line, err)
				}
				return entries, offset, nil
			}
			return nil, 0, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		offset += int64(len(raw)) + 1 // the scanner strips the newline
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return entries, offset, nil
}

// Seq returns the sequence number of the most recent entry.
func (l *Log) Seq() uint64 { return l.seq }

// Append assigns the next sequence number, writes the entry to the WAL,
// and fsyncs before returning. The entry is durable once Append returns.
// Compaction runs when the live segment reaches snapshotEvery entries.
func (l *Log) Append(e Entry) (Entry, error) {
	if l.wal == nil {
		return Entry{}, fmt.Errorf("store: log is closed")
	}
	l.seq++
	e.Seq = l.seq
	b, err := json.Marshal(e)
	if err != nil {
		return Entry{}, fmt.Errorf("store: marshal entry: %w", err)
	}
	b = append(b, '\n')
	if _, err := l.wal.Write(b); err != nil {
		return Entry{}, fmt.Errorf("store: append: %w", err)
	}
	t0 := time.Now()
	if err := l.wal.Sync(); err != nil {
		return Entry{}, fmt.Errorf("store: fsync: %w", err)
	}
	telFsync.ObserveSince(t0)
	telAppends.Inc()
	l.segEntries++
	l.segBytes += int64(len(b))
	telWALBytes.Set(float64(l.segBytes))

	if l.snapshotEvery > 0 && l.segEntries >= l.snapshotEvery {
		if err := l.compact(); err != nil {
			return Entry{}, err
		}
	}
	return e, nil
}

// AppendBatch writes a run of pre-sequenced entries — a replication
// batch shipped by a cluster leader — with a single fsync covering the
// whole run. Unlike Append, the entries' sequence numbers are assigned
// by the caller and must continue this log exactly (first entry at
// Seq()+1, contiguous after that); a mismatch means the streams have
// diverged and nothing is written.
func (l *Log) AppendBatch(entries []Entry) error {
	if l.wal == nil {
		return fmt.Errorf("store: log is closed")
	}
	if len(entries) == 0 {
		return nil
	}
	var buf []byte
	for i, e := range entries {
		if e.Seq != l.seq+uint64(i)+1 {
			return fmt.Errorf("store: batch entry %d has seq %d, want %d (stream diverged)", i, e.Seq, l.seq+uint64(i)+1)
		}
		b, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("store: marshal entry: %w", err)
		}
		buf = append(buf, b...)
		buf = append(buf, '\n')
	}
	if _, err := l.wal.Write(buf); err != nil {
		return fmt.Errorf("store: append batch: %w", err)
	}
	t0 := time.Now()
	if err := l.wal.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	telFsync.ObserveSince(t0)
	telAppends.Add(int64(len(entries)))
	l.seq = entries[len(entries)-1].Seq
	l.segEntries += len(entries)
	l.segBytes += int64(len(buf))
	telWALBytes.Set(float64(l.segBytes))

	if l.snapshotEvery > 0 && l.segEntries >= l.snapshotEvery {
		if err := l.compact(); err != nil {
			return err
		}
	}
	return nil
}

// compact folds the live WAL segment into the snapshot: write
// snapshot+wal to a temp file, fsync, rename over the snapshot, then
// truncate the WAL. A crash between the rename and the truncate leaves
// the WAL as a stale duplicate of the snapshot's tail; Open detects the
// seq overlap and discards the segment.
func (l *Log) compact() error {
	snapPath := filepath.Join(l.dir, snapName)
	tmpPath := snapPath + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	defer os.Remove(tmpPath) // no-op after a successful rename

	copyInto := func(path string) error {
		src, err := os.Open(path)
		if os.IsNotExist(err) {
			return nil
		}
		if err != nil {
			return err
		}
		defer src.Close()
		_, err = io.Copy(tmp, src)
		return err
	}
	if err := copyInto(snapPath); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := copyInto(filepath.Join(l.dir, walName)); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmpPath, snapPath); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	// Fsync the directory immediately after the rename: without it the
	// rename may not be durable, and a power loss could resurrect the old
	// snapshot after the WAL below has already been truncated — losing
	// the folded segment entirely.
	syncDir(l.dir)
	if err := l.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: compact: truncate wal: %w", err)
	}
	if _, err := l.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := l.wal.Sync(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	syncDir(l.dir)
	l.segEntries = 0
	l.segBytes = 0
	telWALBytes.Set(0)
	telSnapshots.Inc()
	return nil
}

// Wipe removes the log files from dir — a closed log only. A cluster
// follower whose log has diverged from the elected leader's (it was a
// leader itself and kept an unreplicated suffix) wipes and re-pulls the
// authoritative history via snapshot transfer.
func Wipe(dir string) error {
	for _, name := range []string{snapName, walName, snapName + ".tmp"} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: wipe: %w", err)
		}
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so renames survive power loss; errors are
// dropped (not all filesystems support it).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	d.Close()
}

// Close flushes and closes the WAL. Further appends fail.
func (l *Log) Close() error {
	if l.wal == nil {
		return nil
	}
	err := l.wal.Sync()
	if cerr := l.wal.Close(); err == nil {
		err = cerr
	}
	l.wal = nil
	return err
}
