package scrub

// Sealed-archive compaction: rewrite a chunked archive dropping records
// that carry no information — duplicate blob records (a reconnecting
// client can legally re-send metadata), watermark records that do not
// advance their core's mark, and trailing bytes after the seal — and
// re-seal. A clean archive compacts to itself byte-identically: when
// nothing would be dropped the file is not rewritten at all, which the
// golden test pins.

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"jportal"
	"jportal/internal/fsatomic"
	"jportal/internal/ingest"
	"jportal/internal/metrics"
	"jportal/internal/streamfmt"
)

// CompactStats summarises one compaction.
type CompactStats struct {
	Rewritten      bool
	DroppedRecords int
	BytesBefore    int64
	BytesAfter     int64
}

// ErrNotSealed reports a compaction attempt on an archive still being
// written: compaction is for finished archives only — rewriting under a
// live writer would corrupt the seq↔byte mapping its client resumes by.
var ErrNotSealed = errors.New("scrub: archive is not sealed; compaction applies to finished archives only")

// CompactArchive compacts the sealed chunked archive in dir. reg receives
// the compaction_* counters (nil = metrics.Default).
func CompactArchive(dir string, reg *metrics.Registry) (CompactStats, error) {
	var cs CompactStats
	if reg == nil {
		reg = metrics.Default
	}
	info, err := jportal.ReadArchiveInfo(dir)
	if err != nil {
		return cs, err
	}
	if info.Layout != jportal.LayoutChunked {
		return cs, fmt.Errorf("scrub: %s is a %q archive; compaction applies to chunked archives", dir, info.Layout)
	}
	path := filepath.Join(dir, jportal.StreamFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		return cs, err
	}
	cs.BytesBefore = int64(len(data))

	ncores, err := streamfmt.ParseHeader(data)
	if err != nil {
		return cs, fmt.Errorf("scrub: %s: %w", path, err)
	}
	out := make([]byte, 0, len(data))
	out = append(out, data[:streamfmt.HeaderLen]...)
	crc := crc32.Update(0, crc32.IEEETable, out) // compacted stream
	origCRC := crc                               // original stream, for verifying its seal
	marks := make([]uint64, ncores)
	seenBlobs := map[string]struct{}{}
	sealed := false
	off := streamfmt.HeaderLen
	for off < len(data) {
		if sealed {
			// Trailing bytes after the seal carry nothing the seal covers.
			cs.DroppedRecords++
			break
		}
		n, err := streamfmt.Scan(data[off:])
		if err != nil {
			// Compaction refuses damaged input: scrub and repair first.
			return cs, fmt.Errorf("scrub: %s at byte %d: %w", path, off, err)
		}
		rec := data[off : off+n]
		off += n
		if sealCRC, ok := streamfmt.SealCRC(rec); ok {
			// Verify against the original stream, not the compacted one:
			// the input must be intact before we rewrite it.
			if sealCRC != origCRC {
				return cs, fmt.Errorf("scrub: %s: seal CRC does not match; repair before compacting", path)
			}
			sealed = true
			continue // re-sealed below with the compacted checksum
		}
		origCRC = crc32.Update(origCRC, crc32.IEEETable, rec)
		drop := false
		switch rec[0] {
		case streamfmt.TagBlob:
			if _, dup := seenBlobs[string(rec)]; dup {
				drop = true
			} else {
				seenBlobs[string(rec)] = struct{}{}
			}
		case streamfmt.TagWatermark:
			ev, _, err := streamfmt.Decode(rec, nil)
			if err != nil {
				return cs, fmt.Errorf("scrub: %s at byte %d: %w", path, off-n, err)
			}
			if ev.Core < 0 || ev.Core >= ncores || ev.Mark <= marks[ev.Core] {
				drop = true
			} else {
				marks[ev.Core] = ev.Mark
			}
		}
		if drop {
			cs.DroppedRecords++
			continue
		}
		out = append(out, rec...)
		crc = crc32.Update(crc, crc32.IEEETable, rec)
	}
	if !sealed {
		return cs, ErrNotSealed
	}
	if cs.DroppedRecords == 0 {
		// Nothing to drop: the file is already minimal. Leaving it
		// untouched (not even a same-bytes rewrite) is what makes clean
		// archives byte-identical across compaction, mtimes included.
		cs.BytesAfter = cs.BytesBefore
		return cs, nil
	}
	preSealCRC := crc
	out = append(out, streamfmt.TagSeal)
	var sealBuf [4]byte
	sealBuf[0] = byte(preSealCRC)
	sealBuf[1] = byte(preSealCRC >> 8)
	sealBuf[2] = byte(preSealCRC >> 16)
	sealBuf[3] = byte(preSealCRC >> 24)
	out = append(out, sealBuf[:]...)
	if err := fsatomic.WriteFile(path, out, 0o644); err != nil {
		return cs, err
	}
	cs.BytesAfter = int64(len(out))
	cs.Rewritten = true

	// The durable frontier must follow the rewrite: a stale ingest.state
	// whose Size exceeds the compacted file would make a later restore()
	// zero-extend the stream — silent corruption. Seq is preserved (the
	// session is sealed; no client resumes it) and the CRC becomes the
	// compacted pre-seal checksum.
	if st, err := ingest.ReadSessionState(dir); err == nil {
		st.Size = int64(len(out))
		st.CRC = preSealCRC
		st.Sealed = true
		if err := ingest.WriteSessionState(dir, st); err != nil {
			return cs, err
		}
	} else if !os.IsNotExist(err) {
		return cs, err
	}
	reg.Add(metrics.CounterCompactionRewritten, 1)
	reg.Add(metrics.CounterCompactionDropped, int64(cs.DroppedRecords))
	return cs, nil
}
