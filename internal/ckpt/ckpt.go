// Package ckpt holds the crash-consistent checkpoint state of one SCC
// device: a full snapshot of the device's on-chip memory banks plus a
// write-ahead tail of every store applied since the snapshot. Restoring
// a checkpoint replays snapshot-then-tail, which reconstructs the
// memory image byte-exactly at the crash point — the property the
// membership manager's rejoin path depends on (DESIGN.md §8).
//
// The package is pure data: it never touches the simulation kernel, so
// taking or restoring a checkpoint costs zero simulated time on its own
// (the membership manager charges the modelled quiesce/restore delays).
package ckpt

// Record is one journaled store into a device bank.
type Record struct {
	Bank int // tile/bank index within the device
	Off  int // byte offset within the bank
	Data []byte
}

// Log is the checkpoint state of one device: the last snapshot of its
// banks and the write journal accumulated since.
type Log struct {
	snap [][]byte
	tail []Record

	snaps      int // checkpoints taken
	snapBytes  int // total snapshot payload
	tailWrites int // journal records since the last checkpoint
	tailBytes  int
}

// NewLog returns an empty log whose first checkpoint defines the bank
// geometry.
func NewLog() *Log { return &Log{} }

// Note journals one store. The data is copied: callers may reuse their
// buffers.
func (l *Log) Note(bank, off int, data []byte) {
	if l == nil || len(data) == 0 {
		return
	}
	l.tail = append(l.tail, Record{Bank: bank, Off: off, Data: append([]byte(nil), data...)})
	l.tailWrites++
	l.tailBytes += len(data)
}

// CheckpointFrom takes a snapshot and truncates the journal — the
// quiesce-point capture. capture copies the live bank images into the
// buffers it is handed (the previous snapshot's, nil before the first
// checkpoint) and returns them; the log keeps what it returns, so a
// capture that reuses the buffers makes a checkpoint allocation-free.
// It returns the snapshot's payload bytes.
func (l *Log) CheckpointFrom(capture func(dst [][]byte) [][]byte) (bytes int) {
	if l == nil {
		return 0
	}
	l.snap = capture(l.snap)
	for _, b := range l.snap {
		bytes += len(b)
	}
	l.tail = l.tail[:0]
	l.tailWrites = 0
	l.tailBytes = 0
	l.snaps++
	l.snapBytes += bytes
	return bytes
}

// Restore rebuilds the crash-point memory image: the snapshot with the
// journal tail replayed over it, in write order. It returns the bank
// images (owned by the caller) and the replayed write/byte totals, or
// nil if no checkpoint was ever taken.
func (l *Log) Restore() (banks [][]byte, writes, bytes int) {
	if l == nil || l.snap == nil {
		return nil, 0, 0
	}
	banks = make([][]byte, len(l.snap))
	for i, b := range l.snap {
		banks[i] = append([]byte(nil), b...)
	}
	for _, r := range l.tail {
		if r.Bank < 0 || r.Bank >= len(banks) {
			continue
		}
		bank := banks[r.Bank]
		if r.Off < 0 || r.Off+len(r.Data) > len(bank) {
			continue
		}
		copy(bank[r.Off:], r.Data)
		writes++
		bytes += len(r.Data)
	}
	return banks, writes, bytes
}

// Armed reports whether a snapshot exists to restore from.
func (l *Log) Armed() bool { return l != nil && l.snap != nil }

// Checkpoints returns how many snapshots were taken and their total
// payload bytes.
func (l *Log) Checkpoints() (n, bytes int) {
	if l == nil {
		return 0, 0
	}
	return l.snaps, l.snapBytes
}

// TailLen returns the journal's current record and byte counts.
func (l *Log) TailLen() (writes, bytes int) {
	if l == nil {
		return 0, 0
	}
	return l.tailWrites, l.tailBytes
}
