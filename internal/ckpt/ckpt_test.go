package ckpt

import (
	"bytes"
	"testing"
)

// from returns a capture that copies banks into the log's reused
// buffers, as scc.(*Chip).SnapshotLMBInto does for a chip.
func from(banks [][]byte) func([][]byte) [][]byte {
	return func(dst [][]byte) [][]byte {
		if len(dst) != len(banks) {
			dst = make([][]byte, len(banks))
		}
		for i, b := range banks {
			if len(dst[i]) != len(b) {
				dst[i] = make([]byte, len(b))
			}
			copy(dst[i], b)
		}
		return dst
	}
}

func TestRestoreReplaysSnapshotPlusTail(t *testing.T) {
	l := NewLog()
	banks := [][]byte{make([]byte, 64), make([]byte, 64)}
	for i := range banks[0] {
		banks[0][i] = byte(i)
	}
	l.CheckpointFrom(from(banks))

	// Mutations after the checkpoint, journaled as they happen.
	copy(banks[0][8:], []byte{0xAA, 0xBB})
	l.Note(0, 8, []byte{0xAA, 0xBB})
	copy(banks[1][0:], []byte{1, 2, 3, 4})
	l.Note(1, 0, []byte{1, 2, 3, 4})
	copy(banks[0][8:], []byte{0xCC}) // overwrite: order matters
	l.Note(0, 8, []byte{0xCC})

	got, writes, n := l.Restore()
	if writes != 3 || n != 7 {
		t.Errorf("replayed %d writes / %d bytes, want 3 / 7", writes, n)
	}
	for i := range banks {
		if !bytes.Equal(got[i], banks[i]) {
			t.Errorf("bank %d: restore diverges from live image\n got %x\nwant %x", i, got[i], banks[i])
		}
	}
	// The restored image is a copy, not an alias.
	got[0][0] ^= 0xFF
	if banks[0][0] == got[0][0] {
		t.Error("restored bank aliases the live bank")
	}
}

func TestCheckpointTruncatesTail(t *testing.T) {
	l := NewLog()
	l.CheckpointFrom(from([][]byte{make([]byte, 16)}))
	l.Note(0, 0, []byte{9})
	if w, b := l.TailLen(); w != 1 || b != 1 {
		t.Fatalf("tail = %d/%d, want 1/1", w, b)
	}
	l.CheckpointFrom(from([][]byte{{9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}))
	if w, b := l.TailLen(); w != 0 || b != 0 {
		t.Errorf("tail survived a checkpoint: %d/%d", w, b)
	}
	if n, total := l.Checkpoints(); n != 2 || total != 32 {
		t.Errorf("checkpoints = %d/%d bytes, want 2/32", n, total)
	}
	img, _, _ := l.Restore()
	if img[0][0] != 9 {
		t.Error("second checkpoint image not the restore base")
	}
}

func TestRestoreWithoutCheckpoint(t *testing.T) {
	l := NewLog()
	if l.Armed() {
		t.Error("empty log claims to be armed")
	}
	if img, _, _ := l.Restore(); img != nil {
		t.Error("restore from an empty log produced an image")
	}
	// Notes before the first checkpoint are discarded by it, not
	// replayed into it.
	l.Note(0, 0, []byte{1})
	l.CheckpointFrom(from([][]byte{make([]byte, 4)}))
	img, writes, _ := l.Restore()
	if writes != 0 || img[0][0] != 0 {
		t.Errorf("pre-checkpoint note replayed (writes=%d, byte=%d)", writes, img[0][0])
	}
}

func TestOutOfRangeRecordsSkipped(t *testing.T) {
	l := NewLog()
	l.CheckpointFrom(from([][]byte{make([]byte, 8)}))
	l.tail = append(l.tail,
		Record{Bank: 5, Off: 0, Data: []byte{1}},
		Record{Bank: 0, Off: 7, Data: []byte{1, 2}},
		Record{Bank: 0, Off: -1, Data: []byte{1}},
	)
	img, writes, n := l.Restore()
	if writes != 0 || n != 0 {
		t.Errorf("invalid records replayed: %d writes / %d bytes", writes, n)
	}
	if !bytes.Equal(img[0], make([]byte, 8)) {
		t.Error("invalid record mutated the image")
	}
}

func TestNilLogIsInert(t *testing.T) {
	var l *Log
	l.Note(0, 0, []byte{1})
	l.CheckpointFrom(from(nil))
	if l.Armed() {
		t.Error("nil log armed")
	}
	if img, _, _ := l.Restore(); img != nil {
		t.Error("nil log restored an image")
	}
	if w, b := l.TailLen(); w != 0 || b != 0 {
		t.Error("nil log has a tail")
	}
	if n, b := l.Checkpoints(); n != 0 || b != 0 {
		t.Error("nil log has checkpoints")
	}
}

func TestCheckpointFromReusesSnapshot(t *testing.T) {
	l := NewLog()
	var handed [][]byte
	capture := func(dst [][]byte) [][]byte {
		handed = dst
		return from([][]byte{{1, 2}, {3, 4, 5}})(dst)
	}
	if n := l.CheckpointFrom(capture); n != 5 || handed != nil {
		t.Fatalf("first checkpoint = %d bytes, handed %v; want 5 bytes, nil buffers", n, handed)
	}
	first := l.snap
	l.Note(1, 0, []byte{9})
	if n := l.CheckpointFrom(capture); n != 5 {
		t.Fatalf("second checkpoint = %d bytes, want 5", n)
	}
	if &handed[0][0] != &first[0][0] || &handed[1][0] != &first[1][0] {
		t.Error("second capture was not handed the first snapshot's buffers")
	}
	if w, _ := l.TailLen(); w != 0 {
		t.Errorf("tail = %d records after a checkpoint, want 0", w)
	}
	if n := testing.AllocsPerRun(100, func() { l.CheckpointFrom(capture) }); n != 0 {
		t.Errorf("steady-state checkpoint allocates %.1f times, want 0", n)
	}
}
