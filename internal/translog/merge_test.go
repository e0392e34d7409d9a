package translog

import (
	"crypto/ecdsa"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestMergeEdgeCases builds on-disk sharded stores whose streams
// interleave badly and pins what opening each one does: the refusal
// sentinel (or the recovered size), and every WAL segment left behind
// with its size, so the trims recovery plans are pinned
// byte for byte.
func TestMergeEdgeCases(t *testing.T) {
	hostA, hostB := hostForShard(t, 2, 0), hostForShard(t, 2, 1)
	entry := func(i int, host string) Entry {
		return Entry{Type: EntryAttestOK, Timestamp: int64(1700000000000 + i), Actor: "fw", Host: host, Detail: "OK"}
	}
	// committed commits entries from..from+n−1 as one batch, cycling
	// through hosts (with hostA, hostB stream 0 holds the even indices).
	committed := func(t *testing.T, l *Log, from, n int, hosts ...string) {
		t.Helper()
		batch := make([]Entry, 0, n)
		for i := from; i < from+n; i++ {
			batch = append(batch, entry(i, hosts[i%len(hosts)]))
		}
		if _, err := l.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	// raw lands one record with the given global index at the end of a
	// stream, as a crash mid-cycle leaves it.
	raw := func(t *testing.T, dir string, shard int, index uint64) {
		t.Helper()
		appendToStreamTail(t, dir, shard, appendIndexedRecord(nil, index, entry(int(index%1000)+500, hostA).Marshal()))
	}
	plain := func(t *testing.T, dir string, key *ecdsa.PrivateKey) StoreConfig {
		cfg := StoreConfig{Shards: 2, NoSync: true}
		l, err := OpenDurableLog(key, dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		committed(t, l, 0, 10, hostA, hostB)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	// checkpointed checkpoints 40 alternating entries and commits 10
	// more on hostA only: stream 1 holds nothing past the checkpoint.
	checkpointed := func(t *testing.T, dir string, key *ecdsa.PrivateKey) StoreConfig {
		cfg := StoreConfig{Shards: 2, NoSync: true, SegmentMaxBytes: 256}
		l, err := OpenDurableLog(key, dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		committed(t, l, 0, 40, hostA, hostB)
		if err := l.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		committed(t, l, 40, 10, hostA)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	// Every refusal leaves the store as it was built. A cut keeps index
	// 10 and trims every record past it off both streams.
	refused := map[string]int64{"seg-h0000-00000000000000000000.wal": 336, "seg-h0001-00000000000000000000.wal": 336}
	cut := map[string]int64{"seg-h0000-00000000000000000000.wal": 336, "seg-h0001-00000000000000000000.wal": 280}
	// The checkpoint rolls both streams and leaves every segment it
	// covers on disk: stream 1 has no segment past its count. With its
	// segments deleted, only stream 0's remain.
	emptied := map[string]int64{
		"seg-h0000-00000000000000000000.wal": 280,
		"seg-h0000-00000000000000000005.wal": 280,
		"seg-h0000-00000000000000000010.wal": 280,
		"seg-h0000-00000000000000000015.wal": 280,
		"seg-h0000-00000000000000000020.wal": 280,
		"seg-h0000-00000000000000000025.wal": 280,
		"seg-h0001-00000000000000000000.wal": 280,
		"seg-h0001-00000000000000000005.wal": 280,
		"seg-h0001-00000000000000000010.wal": 280,
		"seg-h0001-00000000000000000015.wal": 280,
	}
	stream0 := map[string]int64{}
	for name, size := range emptied {
		if strings.HasPrefix(name, "seg-h0000-") {
			stream0[name] = size
		}
	}
	cases := []struct {
		name  string
		build func(t *testing.T, dir string, key *ecdsa.PrivateKey) StoreConfig
		want  error  // the refusal, nil when the store opens
		size  uint64 // the recovered size when it opens
		files map[string]int64
	}{
		{"duplicate inside the prefix", func(t *testing.T, dir string, key *ecdsa.PrivateKey) StoreConfig {
			cfg := plain(t, dir, key)
			raw(t, dir, 0, 10)
			raw(t, dir, 1, 10)
			return cfg
		}, ErrStateCorrupt, 0, refused},
		{"duplicate beyond the prefix", func(t *testing.T, dir string, key *ecdsa.PrivateKey) StoreConfig {
			cfg := plain(t, dir, key)
			raw(t, dir, 0, 12)
			raw(t, dir, 1, 12)
			return cfg
		}, ErrStateCorrupt, 0, refused},
		{"duplicate far past the prefix", func(t *testing.T, dir string, key *ecdsa.PrivateKey) StoreConfig {
			cfg := plain(t, dir, key)
			raw(t, dir, 0, 1<<40)
			raw(t, dir, 1, 1<<40)
			return cfg
		}, ErrStateCorrupt, 0, refused},
		{"gap followed by surviving records", func(t *testing.T, dir string, key *ecdsa.PrivateKey) StoreConfig {
			cfg := plain(t, dir, key)
			raw(t, dir, 0, 10)
			raw(t, dir, 0, 12)
			raw(t, dir, 1, 13)
			raw(t, dir, 0, 14)
			return cfg
		}, nil, 11, cut},
		{"record far past base+n", func(t *testing.T, dir string, key *ecdsa.PrivateKey) StoreConfig {
			cfg := plain(t, dir, key)
			raw(t, dir, 0, 10)
			raw(t, dir, 1, 1<<40)
			return cfg
		}, nil, 11, cut},
		{"stream compaction emptied", checkpointed, nil, 50, emptied},
		{"stream compaction emptied, tail segment gone", func(t *testing.T, dir string, key *ecdsa.PrivateKey) StoreConfig {
			cfg := checkpointed(t, dir, key)
			shardFirsts, err := listStreams(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, first := range shardFirsts[1] {
				if err := os.Remove(filepath.Join(dir, shardSegmentName(1, first))); err != nil {
					t.Fatal(err)
				}
			}
			return cfg
		}, nil, 50, stream0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, key := t.TempDir(), testSigner(t)
			cfg := tc.build(t, dir, key)
			l, err := OpenDurableLog(key, dir, cfg)
			if !errors.Is(err, tc.want) || (err != nil) != (tc.want != nil) {
				t.Fatalf("open: got %v, want %v", err, tc.want)
			}
			if err == nil {
				if l.Size() != tc.size {
					t.Errorf("recovered %d entries, want %d", l.Size(), tc.size)
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if got := walFiles(t, dir); !reflect.DeepEqual(got, tc.files) {
				t.Fatalf("files after open:\n got %v\nwant %v", got, tc.files)
			}
		})
	}
}

// walFiles maps each WAL segment in dir to its size.
func walFiles(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for _, de := range des {
		if name := de.Name(); strings.HasPrefix(name, segmentPrefix) {
			info, err := de.Info()
			if err != nil {
				t.Fatal(err)
			}
			out[name] = info.Size()
		}
	}
	return out
}
