package scrub

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"jportal"
	"jportal/internal/ingest"
	"jportal/internal/metrics"
	"jportal/internal/streamfmt"
)

// rec builders for hand-crafted streams (compaction is structural, so the
// payloads only need to frame correctly).

func blobRec(payload []byte) []byte {
	out := []byte{streamfmt.TagBlob}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	return append(out, payload...)
}

func watermarkRec(core uint32, mark uint64) []byte {
	out := []byte{streamfmt.TagWatermark}
	out = binary.LittleEndian.AppendUint32(out, core)
	return binary.LittleEndian.AppendUint64(out, mark)
}

func sealRec(crc uint32) []byte {
	out := []byte{streamfmt.TagSeal}
	return binary.LittleEndian.AppendUint32(out, crc)
}

// sealStream appends a correct seal over header+records.
func sealStream(header []byte, records ...[]byte) []byte {
	out := append([]byte(nil), header...)
	for _, r := range records {
		out = append(out, r...)
	}
	return append(out, sealRec(crc32.ChecksumIEEE(out))...)
}

func TestCompactCleanArchiveIsByteIdenticalNoOp(t *testing.T) {
	dataDir := t.TempDir()
	stream := buildStream(t, 2, 8)
	dir := writeSession(t, dataDir, "clean", testProgramGob(t), stream, 0, 0, false)

	cs, err := CompactArchive(dir, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if cs.Rewritten || cs.DroppedRecords != 0 {
		t.Fatalf("clean archive rewritten: %+v", cs)
	}
	if got := streamBytes(t, dir); !bytes.Equal(got, stream) {
		t.Fatal("clean archive bytes changed")
	}
	if cs.BytesAfter != cs.BytesBefore {
		t.Fatalf("BytesAfter %d != BytesBefore %d on no-op", cs.BytesAfter, cs.BytesBefore)
	}
}

func TestCompactDropsDuplicatesAndReseals(t *testing.T) {
	dataDir := t.TempDir()
	header := streamfmt.AppendHeader(nil, 1)
	blob := blobRec([]byte("meta-blob-A"))
	w100 := watermarkRec(0, 100)
	stream := sealStream(header,
		blob,
		blob, // duplicate blob: dropped
		w100,
		watermarkRec(0, 100), // non-advancing watermark: dropped
		watermarkRec(0, 250),
	)
	img := append(append([]byte(nil), stream...), 0xAA, 0xBB) // trailing junk: dropped
	dir := writeSession(t, dataDir, "dups", testProgramGob(t), img, 0, 0, false)
	// A stale frontier rides along; compaction must rewrite it too.
	pre := ingest.SessionState{Seq: 7, Size: int64(len(img)), CRC: 0xDEAD, Sealed: true}
	if err := ingest.WriteSessionState(dir, pre); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	cs, err := CompactArchive(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Rewritten || cs.DroppedRecords != 3 {
		t.Fatalf("stats = %+v, want rewritten with 3 drops", cs)
	}
	want := sealStream(header, blob, w100, watermarkRec(0, 250))
	got := streamBytes(t, dir)
	if !bytes.Equal(got, want) {
		t.Fatalf("compacted stream is %d bytes, want %d", len(got), len(want))
	}
	if v := walkStream(got, false, ingest.SessionState{}); v.damage != damageNone || v.sealEnd != int64(len(got)) {
		t.Fatalf("compacted stream fails verification: %+v", v)
	}
	st, err := ingest.ReadSessionState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != int64(len(want)) || !st.Sealed || st.Seq != 7 {
		t.Fatalf("frontier after compaction: %+v", st)
	}
	if st.CRC != crc32.ChecksumIEEE(want[:len(want)-5]) {
		t.Fatal("frontier CRC not rewritten to the compacted pre-seal checksum")
	}
	snap := reg.Snapshot()
	if snap[metrics.CounterCompactionRewritten] != 1 || snap[metrics.CounterCompactionDropped] != 3 {
		t.Fatalf("compaction counters: %v", snap)
	}

	// Idempotence: compacting the compacted archive is a no-op.
	cs2, err := CompactArchive(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if cs2.Rewritten || cs2.DroppedRecords != 0 {
		t.Fatalf("second compaction not a no-op: %+v", cs2)
	}
	if again := streamBytes(t, dir); !bytes.Equal(again, want) {
		t.Fatal("second compaction changed bytes")
	}
}

func TestCompactRefusesUnsealed(t *testing.T) {
	dataDir := t.TempDir()
	full := buildStream(t, 1, 4)
	dir := writeSession(t, dataDir, "open", testProgramGob(t), full[:len(full)-5], 0, 0, false)
	if _, err := CompactArchive(dir, metrics.NewRegistry()); err != ErrNotSealed {
		t.Fatalf("err = %v, want ErrNotSealed", err)
	}
}

func TestCompactRefusesCorrupt(t *testing.T) {
	dataDir := t.TempDir()
	stream := buildStream(t, 1, 4)
	img := append([]byte(nil), stream...)
	img[streamfmt.HeaderLen] ^= 0xFF
	dir := writeSession(t, dataDir, "rot", testProgramGob(t), img, 0, 0, false)
	if _, err := CompactArchive(dir, metrics.NewRegistry()); err == nil {
		t.Fatal("compaction accepted a corrupt stream")
	}
	if got, _ := os.ReadFile(filepath.Join(dir, jportal.StreamFileName)); !bytes.Equal(got, img) {
		t.Fatal("failed compaction modified the file")
	}
}
