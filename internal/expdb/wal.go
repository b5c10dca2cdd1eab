// Package expdb is the durable experience database behind the tuning
// server's prior-run path (§4.2–§4.3).
//
// The paper's central claim is that automated tuning compounds when
// knowledge from prior runs persists; an in-memory map that evaporates on
// every restart of the daemon cannot deliver that. expdb stores deposited
// tuning experiences crash-safely and serves nearest-neighbour matches
// without linear scans:
//
//   - an append-only write-ahead log with length+CRC32 framing, a
//     configurable fsync policy, and torn-tail truncation on recovery —
//     a deposit acknowledged is a deposit that survives kill -9;
//   - periodic snapshot+compaction that folds the WAL into an atomically
//     rewritten snapshot using the same merge/keep-best rules as
//     history.DB.Compact, bounding both disk and memory;
//   - per-(app, spec) namespaces behind sharded RW locks, so heavy
//     concurrent deposit/match traffic does not serialize;
//   - a k-d tree index over workload characteristic vectors (behind the
//     history.Classifier interface) replacing O(n·d) scans.
//
// Layout of a data directory:
//
//	<dir>/snapshot.json   compacted state + the LSN it covers (atomic rename)
//	<dir>/wal.log         framed deposits since that snapshot
//
// Recovery loads the snapshot, replays WAL records with LSN beyond the
// snapshot's horizon, and truncates the log at the first torn or corrupt
// frame — everything before the corruption point is recovered. Opened
// without a directory, the same store lives in memory only.
package expdb

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"sync"
	"time"

	"harmony/internal/history"
)

// WALRecord is one framed entry of the write-ahead log: a single deposited
// experience under its namespace key, stamped with a monotone log sequence
// number so replay after a snapshot can skip entries the snapshot already
// covers.
type WALRecord struct {
	// LSN is the log sequence number (monotone per store).
	LSN uint64 `json:"lsn"`
	// Key is the namespace ("app/spec-signature" on the server).
	Key string `json:"key"`
	// Exp is the deposited experience.
	Exp *history.Experience `json:"exp"`
}

// Frame layout: an 18-byte ASCII header — payload length (8 hex chars),
// space, CRC32-IEEE of the payload (8 hex chars), space — then the JSON
// payload, then '\n'. The fixed-width header makes torn tails trivially
// detectable, and keeping everything line-structured keeps the log
// greppable during an incident.
const (
	frameHeaderLen = 8 + 1 + 8 + 1
	// maxFramePayload bounds a frame so a corrupt length field cannot make
	// recovery attempt a multi-gigabyte allocation.
	maxFramePayload = 16 << 20
)

// AppendFrame appends one framed payload to dst and returns the extended
// slice.
func AppendFrame(dst, payload []byte) []byte {
	dst = append(dst, []byte(fmt.Sprintf("%08x %08x ", len(payload), crc32.ChecksumIEEE(payload)))...)
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// EncodeWALRecord frames one record for appending to the log.
func EncodeWALRecord(rec WALRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("expdb: encoding WAL record: %w", err)
	}
	return AppendFrame(nil, payload), nil
}

// DecodeWAL reads framed records from r until the stream ends or the first
// corruption. It returns the decoded records, the byte offset one past the
// last intact frame (the safe truncation point), and a non-nil error
// describing why decoding stopped early — nil when the stream ended cleanly
// on a frame boundary. Garbage, torn tails and CRC mismatches never panic
// and never lose records before the corruption point.
func DecodeWAL(r io.Reader) (recs []WALRecord, validLen int64, err error) {
	br := bufio.NewReader(r)
	var off int64
	header := make([]byte, frameHeaderLen)
	for {
		n, rerr := io.ReadFull(br, header)
		if rerr == io.EOF && n == 0 {
			return recs, off, nil // clean end on a frame boundary
		}
		if rerr != nil {
			return recs, off, fmt.Errorf("expdb: torn frame header at offset %d: %w", off, rerr)
		}
		if header[8] != ' ' || header[17] != ' ' || !isHex(header[:8]) || !isHex(header[9:17]) {
			return recs, off, fmt.Errorf("expdb: corrupt frame header at offset %d", off)
		}
		length64, _ := strconv.ParseUint(string(header[:8]), 16, 32)
		sum64, _ := strconv.ParseUint(string(header[9:17]), 16, 32)
		length, sum := uint32(length64), uint32(sum64)
		if length > maxFramePayload {
			return recs, off, fmt.Errorf("expdb: frame at offset %d claims %d bytes (limit %d)", off, length, maxFramePayload)
		}
		body := make([]byte, int(length)+1) // payload + '\n'
		if _, rerr := io.ReadFull(br, body); rerr != nil {
			return recs, off, fmt.Errorf("expdb: torn frame payload at offset %d: %w", off, rerr)
		}
		payload := body[:length]
		if body[length] != '\n' {
			return recs, off, fmt.Errorf("expdb: frame at offset %d not newline-terminated", off)
		}
		if got := crc32.ChecksumIEEE(payload); got != sum {
			return recs, off, fmt.Errorf("expdb: CRC mismatch at offset %d (stored %08x, computed %08x)", off, sum, got)
		}
		var rec WALRecord
		if jerr := json.Unmarshal(payload, &rec); jerr != nil {
			return recs, off, fmt.Errorf("expdb: undecodable record at offset %d: %v", off, jerr)
		}
		recs = append(recs, rec)
		off += int64(frameHeaderLen) + int64(length) + 1
	}
}

// isHex reports whether every byte is a lower-case hex digit — Sscanf is
// lenient about leading whitespace and signs, so the header shape is
// checked explicitly.
func isHex(b []byte) bool {
	for _, c := range b {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// SyncPolicy controls when WAL appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged deposit
	// survives power loss. The default.
	SyncAlways SyncPolicy = iota
	// SyncNone leaves flushing to the OS page cache: far faster under
	// heavy deposit traffic, at the cost of losing the last few seconds of
	// deposits on a hard crash. Snapshots still fsync regardless.
	SyncNone
)

// ParseSyncPolicy maps the flag spelling ("always" | "none") to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	}
	return SyncAlways, fmt.Errorf("expdb: unknown fsync policy %q (want always or none)", s)
}

func (p SyncPolicy) String() string {
	if p == SyncNone {
		return "none"
	}
	return "always"
}

// wal is the open write-ahead log. Appends are serialized by mu; the
// store's snapshot path holds the same lock to get a consistent horizon.
type wal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	policy  SyncPolicy
	nextLSN uint64
	// records counts appends since open/reset — the snapshot cadence input.
	records int
	// dirtySince is when the oldest unfsynced append happened (zero when
	// every acknowledged record is on stable storage). Only SyncNone ever
	// sets it; /healthz surfaces the lag so an operator notices a store
	// that would lose deposits on a hard crash.
	dirtySince time.Time
}

// openWAL opens (creating if needed) the log for appending. nextLSN is one
// past the highest LSN recovery observed.
func openWAL(path string, policy SyncPolicy, nextLSN uint64) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if nextLSN == 0 {
		nextLSN = 1
	}
	return &wal{f: f, path: path, policy: policy, nextLSN: nextLSN}, nil
}

// append frames and writes one record, assigning its LSN. With SyncAlways
// the record is on stable storage when append returns.
func (w *wal) append(key string, exp *history.Experience) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	lsn := w.nextLSN
	b, err := EncodeWALRecord(WALRecord{LSN: lsn, Key: key, Exp: exp})
	if err != nil {
		return 0, err
	}
	if _, err := w.f.Write(b); err != nil {
		return 0, fmt.Errorf("expdb: WAL append: %w", err)
	}
	if w.policy == SyncAlways {
		if err := w.f.Sync(); err != nil {
			return 0, fmt.Errorf("expdb: WAL fsync: %w", err)
		}
	} else if w.dirtySince.IsZero() {
		w.dirtySince = time.Now()
	}
	w.nextLSN++
	w.records++
	return lsn, nil
}

// flush forces buffered appends to stable storage (meaningful under
// SyncNone; a no-op cost under SyncAlways).
func (w *wal) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.dirtySince = time.Time{}
	return nil
}

// flushLag reports how long the oldest acknowledged-but-unfsynced append
// has been exposed to a hard crash (zero when the log is clean — always
// the case under SyncAlways).
func (w *wal) flushLag() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dirtySince.IsZero() {
		return 0
	}
	return time.Since(w.dirtySince)
}

// reset truncates the log after a snapshot has made its contents
// redundant. Callers must hold w.mu (the store snapshots under it).
func (w *wal) resetLocked() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.records = 0
	w.dirtySince = time.Time{}
	return nil
}

func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	w.dirtySince = time.Time{}
	return err
}
