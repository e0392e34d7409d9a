package statedir

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestWriteReadRoundTrip(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write("x", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read("x")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	s, err := d.ReadString("x")
	if err != nil || s != "hello" {
		t.Fatalf("ReadString = %q, %v", s, err)
	}
	if !d.Exists("x") || d.Exists("y") {
		t.Fatal("Exists mismatch")
	}
}

func TestWaitForTimesOut(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := d.WaitFor("never", 200*time.Millisecond); err == nil {
		t.Fatal("WaitFor succeeded on missing entry")
	}
	if time.Since(start) < 200*time.Millisecond {
		t.Fatal("WaitFor returned before timeout")
	}
}

func TestWaitForSeesLateWrite(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(150 * time.Millisecond)
		d.Write("late", []byte("arrived"))
	}()
	got, err := d.WaitFor("late", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "arrived" {
		t.Fatalf("got %q", got)
	}
}

func TestKeyPEMRoundTrip(t *testing.T) {
	pemBytes, err := GenerateKeyPEM()
	if err != nil {
		t.Fatal(err)
	}
	key, err := ParseKeyPEM(pemBytes)
	if err != nil {
		t.Fatal(err)
	}
	pubPEM, err := MarshalPubPEM(&key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := ParsePubPEM(pubPEM)
	if err != nil {
		t.Fatal(err)
	}
	if !pub.Equal(&key.PublicKey) {
		t.Fatal("public key round trip mismatch")
	}
}

func TestParseKeyPEMErrors(t *testing.T) {
	if _, err := ParseKeyPEM([]byte("garbage")); err == nil {
		t.Fatal("garbage key accepted")
	}
	if _, err := ParsePubPEM([]byte("garbage")); err == nil {
		t.Fatal("garbage pub accepted")
	}
}

// TestMatch covers the discovery half of the rendezvous: patterns find
// exactly the matching entries, sorted, and a bad pattern errors
// instead of silently matching nothing.
func TestMatch(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		WitnessURLFile("w1"), WitnessURLFile("w0"), WitnessURLFile("w2"),
		"witness-w0-head.json", // head files must not match the URL pattern
		HostInfoFile("host-a"),
		"unrelated.txt",
	} {
		if err := d.Write(name, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	got, err := d.Match(WitnessURLPattern)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"witness-w0.url", "witness-w1.url", "witness-w2.url"}
	if len(got) != len(want) {
		t.Fatalf("Match(%q) = %v, want %v", WitnessURLPattern, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Match(%q)[%d] = %q, want %q (sorted)", WitnessURLPattern, i, got[i], want[i])
		}
	}
	if none, err := d.Match("host-zzz-*.json"); err != nil || len(none) != 0 {
		t.Fatalf("non-matching pattern: got %v, %v", none, err)
	}
	if _, err := d.Match("["); err == nil {
		t.Fatal("malformed pattern accepted")
	}
}

// TestWellKnownEntryNames pins the naming helpers the rendezvous relies
// on: a witness URL file round-trips through the discovery pattern and
// never collides with the witness's persisted-head entry.
func TestWellKnownEntryNames(t *testing.T) {
	if got := WitnessURLFile("w7"); got != "witness-w7.url" {
		t.Fatalf("WitnessURLFile = %q", got)
	}
	if got := HostInfoFile("host-b"); got != "host-host-b.json" {
		t.Fatalf("HostInfoFile = %q", got)
	}
	ok, err := filepath.Match(WitnessURLPattern, WitnessURLFile("any"))
	if err != nil || !ok {
		t.Fatalf("WitnessURLFile does not match WitnessURLPattern: %v %v", ok, err)
	}
	ok, err = filepath.Match(WitnessURLPattern, "witness-any-head.json")
	if err != nil || ok {
		t.Fatal("witness head file matches the URL pattern — discovery would gossip with a head file")
	}
}

// TestWriteFailureLeavesNoTempFile forces the rename step to fail (the
// target is an existing directory) and checks the temp file is cleaned
// up: the WAL shares this directory, so stray staging files (any
// taken.tmp* sibling) must never accumulate across failed writes.
func TestWriteFailureLeavesNoTempFile(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(d.Path("taken"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := d.Write("taken", []byte("clobber")); err == nil {
		t.Fatal("Write over a directory succeeded")
	}
	assertNoTempFiles(t, d, "taken")
}

// assertNoTempFiles fails the test if any staging file of name
// (name.tmp, name.tmp-*) is left in d.
func assertNoTempFiles(t *testing.T, d *Dir, name string) {
	t.Helper()
	stray, err := filepath.Glob(d.Path(name + ".tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(stray) != 0 {
		t.Fatalf("temp files left behind: %v", stray)
	}
}

// TestReplaceFileConcurrentWriters races two writers of one file round
// after round. Every replacement must succeed and leave the file holding
// one writer's whole bytes — never a failed rename of a temp file the
// other writer already moved, never the two writers' bytes mixed — and
// no staging file may be left over.
func TestReplaceFileConcurrentWriters(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path := d.Path("head.json")
	payloads := [2][]byte{bytes.Repeat([]byte("a"), 64<<10), bytes.Repeat([]byte("b"), 32<<10)}
	for round := 0; round < 200; round++ {
		var wg sync.WaitGroup
		errs := make([]error, len(payloads))
		for i := range payloads {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = ReplaceFile(path, payloads[i], false)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d writer %d: %v", round, i, err)
			}
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payloads[0]) && !bytes.Equal(got, payloads[1]) {
			t.Fatalf("round %d: file holds %d bytes that are neither writer's", round, len(got))
		}
	}
	assertNoTempFiles(t, d, "head.json")
}
