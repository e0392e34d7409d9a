package translog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// appendRecord frames one raw payload into dst — a record with no index
// prefix, for tests of the framing alone and of payloads rewritten in
// place.
func appendRecord(dst, payload []byte) []byte {
	var hdr [recordHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// indexedPayload builds the payload appendIndexedRecord frames: the
// entry's global tree index followed by its canonical encoding.
func indexedPayload(index uint64, payload []byte) []byte {
	rec := make([]byte, shardIndexLen, shardIndexLen+len(payload))
	binary.BigEndian.PutUint64(rec, index)
	return append(rec, payload...)
}

// segmentPayloads collects the payloads scanSegment hands out for data.
func segmentPayloads(data []byte) ([][]byte, error) {
	var out [][]byte
	_, err := scanSegment(data, func(p []byte) error {
		out = append(out, p)
		return nil
	})
	return out, err
}

// FuzzScanSegment frames fuzzer-chosen payloads into a segment — plain
// records and sharded ones with their global index prefix — and checks
// the scanner's contract on it: the intact segment comes back
// byte-equal; a cut anywhere yields errTornTail with clean at the last
// intact record (no error on a record boundary); a flipped bit yields
// ErrStateCorrupt or errTornTail, and only the records before the
// damaged one are handed out.
//
// Input layout: each record takes one byte — low six bits its payload
// length, top bit the sharded framing — followed by its payload bytes.
func FuzzScanSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte, cut, flip uint32) {
		var seg []byte
		var want [][]byte
		var ends []int // byte offset just past each record
		for len(script) > 0 {
			n := min(int(script[0]&0x3f), len(script)-1)
			sharded := script[0]&0x80 != 0
			p := script[1 : 1+n]
			script = script[1+n:]
			if sharded {
				index := uint64(len(want)) * 977
				seg = appendIndexedRecord(seg, index, p)
				want = append(want, indexedPayload(index, p))
			} else {
				seg = appendRecord(seg, p)
				want = append(want, p)
			}
			ends = append(ends, len(seg))
		}
		// check scans data and requires exactly the first k records back.
		check := func(what string, data []byte, k int) (int, error) {
			t.Helper()
			got := 0
			clean, err := scanSegment(data, func(p []byte) error {
				if got >= k || !bytes.Equal(p, want[got]) {
					t.Fatalf("%s: record %d handed out wrong", what, got)
				}
				got++
				return nil
			})
			if got != k {
				t.Fatalf("%s: %d records handed out, want %d", what, got, k)
			}
			return clean, err
		}

		if clean, err := check("intact", seg, len(want)); err != nil || clean != len(seg) {
			t.Fatalf("intact segment: clean %d of %d, err %v", clean, len(seg), err)
		}
		if len(seg) == 0 {
			return
		}

		c := int(cut % uint32(len(seg)))
		k := 0
		for k < len(ends) && ends[k] <= c {
			k++
		}
		boundary := 0
		if k > 0 {
			boundary = ends[k-1]
		}
		clean, err := check("cut", seg[:c], k)
		switch {
		case clean != boundary:
			t.Fatalf("cut at %d: clean %d, want %d", c, clean, boundary)
		case c == boundary && err != nil:
			t.Fatalf("cut on a record boundary: %v", err)
		case c != boundary && !errors.Is(err, errTornTail):
			t.Fatalf("cut at %d: %v, want errTornTail", c, err)
		}

		bit := int(flip % uint32(8*len(seg)))
		mutated := bytes.Clone(seg)
		mutated[bit/8] ^= 1 << (bit % 8)
		damaged := 0
		for ends[damaged] <= bit/8 {
			damaged++
		}
		got := 0
		_, err = scanSegment(mutated, func(p []byte) error {
			if got >= damaged || !bytes.Equal(p, want[got]) {
				t.Fatalf("flipped bit %d: damaged record %d handed out", bit, got)
			}
			got++
			return nil
		})
		if !errors.Is(err, ErrStateCorrupt) && !errors.Is(err, errTornTail) {
			t.Fatalf("flipped bit %d: %v, want ErrStateCorrupt or errTornTail", bit, err)
		}
	})
}

// TestScanSegmentAllocsConstant pins the zero-copy scan: payloads are
// sub-slices of the segment buffer, so scanning allocates nothing per
// record. A 16-record and a 4096-record segment cost the same
// allocations, both scanned in memory and read from disk.
func TestScanSegmentAllocsConstant(t *testing.T) {
	build := func(n int) []byte {
		var seg []byte
		for i := 0; i < n; i++ {
			seg = appendIndexedRecord(seg, uint64(i), testEntry(i).Marshal())
		}
		return seg
	}
	scanned := func(seg []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			records := 0
			if _, err := scanSegment(seg, func([]byte) error { records++; return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
	read := func(seg []byte) float64 {
		path := filepath.Join(t.TempDir(), shardSegmentName(0, 0))
		if err := os.WriteFile(path, seg, 0o600); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			st := walStream{shard: 0}
			if err := st.read(path, 0, func(uint64) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := build(16), build(4096)
	if a, b := scanned(small), scanned(large); a != b {
		t.Errorf("scan: %v allocations for 16 records, %v for 4096", a, b)
	}
	if a, b := read(small), read(large); a != b {
		t.Errorf("read: %v allocations for 16 records, %v for 4096", a, b)
	}
}

// TestReplayAllocsConstant pins the lean suffix pass: replay validates
// each record in place and hashes its leaf into a presized slot, so a
// 16-entry and a 4096-entry suffix with no serials cost the same
// allocations, with one stream and with four. What remains grows only
// with the number of segments and of serial-carrying records.
func TestReplayAllocsConstant(t *testing.T) {
	entry := func(i int) []byte {
		return Entry{Type: EntryAttestOK, Timestamp: int64(i), Actor: "fw", Host: "host-0", Detail: "OK"}.Marshal()
	}
	// store writes n records as one segment per stream and returns the
	// directory and the stream firsts replay takes.
	store := func(n, shards int) (string, [][]uint64) {
		dir := t.TempDir()
		segs := make([][]byte, shards)
		for i := 0; i < n; i++ {
			segs[i%shards] = appendIndexedRecord(segs[i%shards], uint64(i), entry(i))
		}
		firsts := make([][]uint64, shards)
		for s, seg := range segs {
			if err := os.WriteFile(filepath.Join(dir, shardSegmentName(s, 0)), seg, 0o600); err != nil {
				t.Fatal(err)
			}
			firsts[s] = []uint64{0}
		}
		return dir, firsts
	}
	allocs := func(n, shards int) float64 {
		dir, firsts := store(n, shards)
		return testing.AllocsPerRun(10, func() {
			rec, _, err := replay(dir, firsts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.payloads) != n || len(rec.hashes) != n || len(rec.serials) != 0 {
				t.Fatalf("replayed %d payloads, %d hashes, %d serials; want %d, %d, 0",
					len(rec.payloads), len(rec.hashes), len(rec.serials), n, n)
			}
		})
	}
	for _, shards := range []int{1, 4} {
		if a, b := allocs(16, shards), allocs(4096, shards); a != b {
			t.Errorf("%d shards: %v allocations replaying 16 records, %v for 4096", shards, a, b)
		}
	}
}

// TestScanRefusesRecordBelowCheckpoint: the replay reads only the
// segments starting at or past a stream's checkpointed count, so every
// record it reads sits at or past the checkpoint. Without a checkpoint
// the scan counts every record of a two-segment stream; with one that
// falls before, inside or after those records, the first record below
// it is refused as corruption.
func TestScanRefusesRecordBelowCheckpoint(t *testing.T) {
	dir := t.TempDir()
	var firsts []uint64
	for first := uint64(0); first < 100; first += 50 {
		var seg []byte
		for i := first; i < first+50; i++ {
			seg = appendIndexedRecord(seg, 3*i, testEntry(int(i)).Marshal())
		}
		if err := os.WriteFile(filepath.Join(dir, shardSegmentName(0, first)), seg, 0o600); err != nil {
			t.Fatal(err)
		}
		firsts = append(firsts, first)
	}
	for _, base := range []uint64{0, 1, 150, 298} {
		st := walStream{shard: 0}
		n, err := st.scan(dir, firsts, base, new([]trimOp))
		switch {
		case base == 0 && (err != nil || n != 100):
			t.Fatalf("no checkpoint: scan counted %d records (%v), want 100", n, err)
		case base > 0 && !errors.Is(err, ErrStateCorrupt):
			t.Fatalf("checkpoint at %d: got %v, want ErrStateCorrupt", base, err)
		}
	}
}
