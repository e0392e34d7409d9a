package translog

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// FuzzWitnessPartition drives fuzzer-chosen (shards, hosts, witnesses,
// Q) shapes through the full partitioned audit plane and checks the
// three properties the trust model rests on:
//
//  1. every shard is covered by at least Q witnesses;
//  2. the assignment is deterministic across restarts — a rebuilt
//     partition and a cursor-restored witness agree with the originals;
//  3. a single-shard rewind (one host's recent entries erased, the
//     head re-served consistently smaller) is convicted by EVERY
//     witness assigned that shard via its audit cursor alone, and by
//     NO witness outside the assignment — ignorance is not evidence,
//     and coverage means ignorance never hides the attack.
//
// The input script: byte 0 picks the shard count (1..8), byte 1 the
// host count (1..8), byte 2 the witness count (1..8), byte 3 the
// quorum (clamped to the witness count), byte 4 the victim host, byte
// 5 the entries per host (1..3).
func FuzzWitnessPartition(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{7, 7, 7, 2, 3, 1})
	f.Add([]byte{3, 5, 2, 9, 1, 2})
	f.Add([]byte{5, 2, 6, 0, 200, 0xFF})
	f.Add([]byte{1, 1, 1, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		shards := int(data[0])%8 + 1
		hosts := int(data[1])%8 + 1
		nWitnesses := int(data[2])%8 + 1
		quorum := int(data[3])%nWitnesses + 1
		victim := fmt.Sprintf("host-%d", int(data[4])%hosts)
		perHost := int(data[5])%3 + 1

		names := make([]string, nWitnesses)
		for i := range names {
			names[i] = fmt.Sprintf("w%02d", i)
		}
		part, err := NewWitnessPartition(shards, names, quorum)
		if err != nil {
			t.Fatalf("valid shape refused: %v", err)
		}
		rebuilt, err := NewWitnessPartition(shards, names, quorum)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < shards; s++ {
			if got := len(part.WitnessesFor(s)); got < quorum {
				t.Fatalf("shard %d covered by %d witnesses, want >= %d", s, got, quorum)
			}
			if !reflect.DeepEqual(part.WitnessesFor(s), rebuilt.WitnessesFor(s)) {
				t.Fatalf("assignment for shard %d not deterministic", s)
			}
		}

		// The honest run: every witness audits its slice to the grown
		// head, then the victim host appends more (one shard stream
		// grows alone).
		key := testSigner(t)
		l, err := NewLog(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.EnableShardStreams(shards); err != nil {
			t.Fatal(err)
		}
		seq := 0
		mk := func(host string) Entry {
			e := Entry{
				Type: EntryAttestOK, Timestamp: int64(1700000000000 + seq),
				Actor: fmt.Sprintf("fw-%d", seq), Host: host, Detail: "OK",
			}
			seq++
			return e
		}
		var base []Entry
		for h := 0; h < hosts; h++ {
			for i := 0; i < perHost; i++ {
				base = append(base, mk(fmt.Sprintf("host-%d", h)))
			}
		}
		if _, err := l.AppendBatch(base); err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendBatch([]Entry{mk(victim), mk(victim)}); err != nil {
			t.Fatal(err)
		}
		fetch := logProofs(l).ConsistencyProof
		grown := l.STH()
		cursors := make(map[string][]byte, len(names))
		for _, name := range names {
			w := NewWitness(&key.PublicKey)
			w.SetAssignedShards(part.AssignedShards(name))
			if err := w.Advance(grown, fetch); err != nil {
				t.Fatal(err)
			}
			if _, err := w.AuditShards(grown, logProofs(l), 0); err != nil {
				t.Fatalf("honest audit convicted: %v", err)
			}
			w.mu.Lock()
			cursors[name], err = w.snapshotCursorsLocked()
			w.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
		}

		// The rewind: a consistent re-serving of only the base history —
		// the victim's last two entries erased, everything else intact.
		rolled, err := NewLog(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := rolled.EnableShardStreams(shards); err != nil {
			t.Fatal(err)
		}
		if _, err := rolled.AppendBatch(base); err != nil {
			t.Fatal(err)
		}
		rolledHead := rolled.STH()
		victimShard := ShardOf(victim, shards)
		convicted := 0
		for _, name := range names {
			// Restart with total head amnesia: the cursor file is the
			// witness's only surviving memory (the hardest case — any
			// witness with head memory convicts trivially).
			w := NewWitness(&key.PublicKey)
			w.SetAssignedShards(part.AssignedShards(name))
			if err := w.restoreCursors(cursors[name]); err != nil {
				t.Fatal(err)
			}
			if err := w.Advance(rolledHead, logProofs(rolled).ConsistencyProof); err != nil {
				t.Fatalf("amnesiac head adoption failed: %v", err)
			}
			_, err := w.AuditShards(rolledHead, logProofs(rolled), 0)
			if part.Covers(name, victimShard) {
				if !errors.Is(err, ErrRollback) {
					t.Fatalf("witness %s assigned shard %d did not convict the rewind: %v", name, victimShard, err)
				}
				convicted++
			} else if err != nil {
				t.Fatalf("witness %s (not assigned shard %d) falsely convicted: %v", name, victimShard, err)
			}
		}
		if convicted < 1 || convicted < min(quorum, nWitnesses) {
			t.Fatalf("%d convictions, want every one of the %d assigned witnesses", convicted, min(quorum, nWitnesses))
		}
	})
}
