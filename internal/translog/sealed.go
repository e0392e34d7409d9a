// Enclave-sealed monotonic head: the trust anchor that survives total
// amnesia. The newest committed head is sealed (SealToMRENCLAVE) into a
// blob stamped with a platform monotonic counter value and bound via
// AAD to the log's signing key. The counter lives in platform NV — not
// on any disk a rollback attacker controls — so a statedir restored
// from an old snapshot carries a blob whose counter the platform has
// already moved past, and recovery refuses with ErrSealedRollback even
// when segments, sth.json and every witness's persisted head were
// rewound in concert.
//
// Commit protocol (Ariadne-style store-then-increment, so a crash never
// forges a rollback verdict):
//
//  1. seal a blob carrying counter+1 and the new head (no increment);
//  2. atomically replace the blob file on disk;
//  3. increment the counter to match.
//
// Invariant: after a completed commit, blob.Counter == platform
// counter. A crash between 2 and 3 leaves blob.Counter == counter+1 —
// provably the enclave's own freshest blob, since no older blob can
// carry a value above the counter — which recovery accepts and heals by
// performing the missing increment. Every historical blob an attacker
// could restore carries blob.Counter < counter and is refused.
package translog

import (
	"crypto/ecdsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"vnfguard/internal/epid"
	"vnfguard/internal/sgx"
	"vnfguard/internal/simtime"
	"vnfguard/internal/statedir"
)

// ErrSealedRollback reports a recovered store older than the head the
// enclave-sealed monotonic counter pins: committed history this
// platform once sealed is missing from the disk (or the sealed head
// itself was deleted or swapped for a stale one).
var ErrSealedRollback = errors.New("translog: on-disk state contradicts enclave-sealed tree head")

// SealedHeadFileName is the sealed-head blob's file name inside the
// store directory.
const SealedHeadFileName = "sealed-head.bin"

// The anchor enclave: a minimal measured module whose only job is to
// keep the seal key and counter access inside an attested identity.
// Bumping the code string (an upgrade) changes MRENCLAVE; bumping the
// SVN alone keeps the MRENCLAVE seal key, and the error mapping in
// sgx.Unseal tells a downgrade (ErrSealSVNRollback) apart from a blob
// that was copied to another machine (ErrSealWrongKey).
const (
	sealedHeadEnclaveCode = "vnfguard translog sealed-head anchor enclave v1"
	sealedHeadEnclaveSVN  = 1

	ecallSealedCommit = "sealed_head_commit"
	ecallSealedOpen   = "sealed_head_open"
	ecallSealedBump   = "sealed_head_bump"
)

// sealedCommitArgs asks the enclave to seal a head under counter+1.
type sealedCommitArgs struct {
	Counter  string `json:"counter"`
	TreeSize uint64 `json:"tree_size"`
	RootHash Hash   `json:"root_hash"`
	AAD      []byte `json:"aad"`
}

// sealedCommitReply returns the sealed blob and the counter value the
// caller must bump to after persisting it.
type sealedCommitReply struct {
	Blob   []byte `json:"blob"`
	BumpTo uint64 `json:"bump_to"`
}

// sealedOpenArgs asks the enclave to unseal and freshness-check a blob.
type sealedOpenArgs struct {
	Counter string `json:"counter"`
	Blob    []byte `json:"blob"`
	AAD     []byte `json:"aad"`
}

// sealedOpenReply reports the unsealed head (when a blob exists) and
// the counter state.
type sealedOpenReply struct {
	HaveBlob    bool   `json:"have_blob"`
	TreeSize    uint64 `json:"tree_size"`
	RootHash    Hash   `json:"root_hash"`
	CounterSeen bool   `json:"counter_seen"`
	CounterVal  uint64 `json:"counter_val"`
	// NeedsHeal marks the crash window: the blob is one ahead of the
	// counter (sealed and persisted, increment lost). The caller bumps
	// after the recovered state checks out.
	NeedsHeal bool   `json:"needs_heal"`
	BumpTo    uint64 `json:"bump_to"`
}

type sealedBumpArgs struct {
	Counter string `json:"counter"`
	Expect  uint64 `json:"expect"`
}

func handleSealedCommit(ctx *sgx.Context, raw []byte) ([]byte, error) {
	var a sealedCommitArgs
	if err := json.Unmarshal(raw, &a); err != nil {
		return nil, err
	}
	cur, _ := ctx.ReadMonotonicCounter(a.Counter)
	blob := sgx.SealedCounterBlob{Counter: cur + 1, TreeSize: a.TreeSize, RootHash: a.RootHash}
	sealed, err := ctx.Seal(sgx.SealToMRENCLAVE, blob.Encode(), a.AAD)
	if err != nil {
		return nil, err
	}
	return json.Marshal(sealedCommitReply{Blob: sealed, BumpTo: cur + 1})
}

func handleSealedOpen(ctx *sgx.Context, raw []byte) ([]byte, error) {
	var a sealedOpenArgs
	if err := json.Unmarshal(raw, &a); err != nil {
		return nil, err
	}
	cur, seen := ctx.ReadMonotonicCounter(a.Counter)
	rep := sealedOpenReply{CounterSeen: seen, CounterVal: cur}
	if len(a.Blob) == 0 {
		return json.Marshal(rep)
	}
	pt, err := ctx.Unseal(a.Blob, a.AAD)
	if err != nil {
		return nil, err
	}
	blob, err := sgx.DecodeSealedCounterBlob(pt)
	if err != nil {
		return nil, fmt.Errorf("%w: sealed head payload undecodable: %v", ErrStateCorrupt, err)
	}
	// The freshness verdict happens inside the enclave: only it can
	// compare an authenticated counter value against platform NV.
	switch {
	case blob.Counter < cur:
		return nil, fmt.Errorf("%w: sealed head stamped with counter %d but the platform counter is %d — a newer head was sealed after this blob was written",
			ErrSealedRollback, blob.Counter, cur)
	case blob.Counter > cur+1:
		return nil, fmt.Errorf("%w: sealed head stamped with counter %d but the platform counter is only %d — the platform NV state is inconsistent with this blob",
			ErrSealedRollback, blob.Counter, cur)
	}
	rep.HaveBlob = true
	rep.TreeSize = blob.TreeSize
	rep.RootHash = blob.RootHash
	rep.NeedsHeal = blob.Counter == cur+1
	rep.BumpTo = blob.Counter
	return json.Marshal(rep)
}

func handleSealedBump(ctx *sgx.Context, raw []byte) ([]byte, error) {
	var a sealedBumpArgs
	if err := json.Unmarshal(raw, &a); err != nil {
		return nil, err
	}
	n, err := ctx.IncrementMonotonicCounter(a.Counter)
	if err != nil {
		return nil, err
	}
	if n != a.Expect {
		return nil, fmt.Errorf("translog: sealed-head counter advanced to %d, expected %d (concurrent writer?)", n, a.Expect)
	}
	return nil, nil
}

// SealedHeadAnchor pins the log's newest committed head in an
// enclave-sealed, monotonic-counter-stamped blob. It implements
// TrustAnchor (and io.Closer: closing destroys the anchor enclave).
type SealedHeadAnchor struct {
	mu      sync.Mutex
	enclave *sgx.Enclave
	path    string
	aad     []byte
	counter string
	// pinSize and pinRoot are the head the blob on disk pins with the
	// counter in step, once CheckRecovery or a CommitHead has established
	// it; havePin reports whether there is one.
	pinSize uint64
	pinRoot Hash
	havePin bool
}

// NewSealedHeadAnchor launches the anchor enclave on platform p (signed
// by vendor) and returns an anchor persisting its sealed blob at path,
// bound to the log signing key logPub: the AAD makes a blob sealed for
// one log useless as freshness evidence for another, and the counter
// name is derived from the same binding so two logs on one platform
// never share a counter.
func NewSealedHeadAnchor(p *sgx.Platform, vendor *ecdsa.PrivateKey, path string, logPub *ecdsa.PublicKey) (*SealedHeadAnchor, error) {
	return newSealedHeadAnchor(p, vendor, path, logPub, sealedHeadEnclaveSVN)
}

// newSealedHeadAnchor lets tests pick the enclave SVN (exercising the
// upgrade/downgrade error mapping).
func newSealedHeadAnchor(p *sgx.Platform, vendor *ecdsa.PrivateKey, path string, logPub *ecdsa.PublicKey, svn uint16) (*SealedHeadAnchor, error) {
	aad, err := x509.MarshalPKIXPublicKey(logPub)
	if err != nil {
		return nil, fmt.Errorf("translog: encoding log key for sealed anchor: %w", err)
	}
	spec := sgx.EnclaveSpec{
		Name:       "translog-sealed-head",
		ProdID:     9,
		SVN:        svn,
		Attributes: sgx.Attributes{Mode64: true},
		HeapPages:  2,
		Modules: []sgx.CodeModule{{
			Name: "sealed-head",
			Code: []byte(sealedHeadEnclaveCode),
			Handlers: map[string]sgx.ECallHandler{
				ecallSealedCommit: handleSealedCommit,
				ecallSealedOpen:   handleSealedOpen,
				ecallSealedBump:   handleSealedBump,
			},
		}},
	}
	ss, err := sgx.SignEnclave(spec, vendor)
	if err != nil {
		return nil, err
	}
	e, err := p.Launch(spec, ss)
	if err != nil {
		return nil, err
	}
	binding := sha256.Sum256(aad)
	return &SealedHeadAnchor{
		enclave: e,
		path:    path,
		aad:     aad,
		counter: fmt.Sprintf("translog-head-%x", binding[:8]),
	}, nil
}

// Name implements TrustAnchor.
func (a *SealedHeadAnchor) Name() string { return "sealed-counter" }

// Close destroys the anchor enclave. Safe to call more than once.
func (a *SealedHeadAnchor) Close() error {
	a.enclave.Destroy()
	return nil
}

// CheckRecovery unseals the on-disk blob, has the enclave verify its
// counter freshness, and compares the pinned head against the
// recovered state. All failure modes surface distinctly: a stale or
// deleted blob is ErrSealedRollback; a blob sealed by a newer enclave
// SVN is sgx.ErrSealSVNRollback (this enclave was downgraded); a blob
// this platform or enclave identity cannot unseal is
// sgx.ErrSealWrongKey (the statedir was copied to another machine, or
// the blob is corrupt).
func (a *SealedHeadAnchor) CheckRecovery(state *RecoveredState) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.havePin = false
	blob, err := os.ReadFile(a.path)
	if errors.Is(err, os.ErrNotExist) {
		blob = nil
	} else if err != nil {
		return fmt.Errorf("translog: reading sealed head: %w", err)
	}
	raw, err := a.enclave.ECall(ecallSealedOpen, mustJSON(sealedOpenArgs{
		Counter: a.counter, Blob: blob, AAD: a.aad,
	}))
	if err != nil {
		return mapSealedError(err)
	}
	var rep sealedOpenReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		return err
	}
	if !rep.HaveBlob {
		if rep.CounterSeen && rep.CounterVal > 0 {
			return fmt.Errorf("%w: no sealed head on disk but the platform counter is %d — the sealed head was deleted alongside the history it pinned",
				ErrSealedRollback, rep.CounterVal)
		}
		return nil // genuinely fresh: no blob, no counter
	}
	if err := state.check(rep.TreeSize, rep.RootHash, "sealed head", ErrSealedRollback, ErrSealedRollback); err != nil {
		return err
	}
	if rep.NeedsHeal {
		// Crash window: the blob was persisted but its increment was
		// lost. The state checks out, so perform the missing bump now —
		// recovery must leave the invariant (blob counter == platform
		// counter) restored.
		if _, err := a.enclave.ECall(ecallSealedBump, mustJSON(sealedBumpArgs{
			Counter: a.counter, Expect: rep.BumpTo,
		})); err != nil {
			return fmt.Errorf("translog: healing sealed-head counter: %w", err)
		}
	}
	a.pinSize, a.pinRoot, a.havePin = rep.TreeSize, rep.RootHash, true
	return nil
}

// CommitHead seals the new head under counter+1, atomically replaces
// the blob file, then advances the counter (see the commit protocol in
// the package comment above). A head of the size and root the blob
// already pins is not sealed again: the counter is not bumped, which
// spares two ECalls and a counter the hardware limits.
func (a *SealedHeadAnchor) CommitHead(sth SignedTreeHead) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.havePin && sth.Size == a.pinSize && sth.RootHash == a.pinRoot {
		return nil
	}
	a.havePin = false
	sealStart := time.Now()
	raw, err := a.enclave.ECall(ecallSealedCommit, mustJSON(sealedCommitArgs{
		Counter: a.counter, TreeSize: sth.Size, RootHash: sth.RootHash, AAD: a.aad,
	}))
	if err != nil {
		return fmt.Errorf("translog: sealing head: %w", err)
	}
	mSealedSeal.Observe(time.Since(sealStart))
	var rep sealedCommitReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		return err
	}
	if err := a.writeBlob(rep.Blob); err != nil {
		return err
	}
	bumpStart := time.Now()
	if _, err := a.enclave.ECall(ecallSealedBump, mustJSON(sealedBumpArgs{
		Counter: a.counter, Expect: rep.BumpTo,
	})); err != nil {
		return fmt.Errorf("translog: advancing sealed-head counter: %w", err)
	}
	mSealedBump.Observe(time.Since(bumpStart))
	a.pinSize, a.pinRoot, a.havePin = sth.Size, sth.RootHash, true
	return nil
}

// writeBlob atomically and durably replaces the sealed blob file.
// Durability matters for correctness here, not just persistence: the
// counter bump that follows is itself durable, so losing the blob
// rename to a power failure while keeping the bump would make an
// honest crash look like a rollback (stale blob behind an advanced
// counter) — the one verdict this anchor must never fake.
func (a *SealedHeadAnchor) writeBlob(blob []byte) error {
	return statedir.ReplaceFile(a.path, blob, true)
}

// OpenSealedPlatform is the deployment bootstrap both binaries share
// for the sealed-head anchor: an SGX platform whose non-volatile state
// (root-key seed + monotonic counters) lives in nvFile, provisioned
// into the deployment's published EPID group when one exists (the
// anchor never quotes, so a throwaway group serves otherwise). One NV
// file models one machine — the same file across process restarts
// yields the same sealing keys and counter values, and it must live
// outside any statedir a rollback attacker controls.
func OpenSealedPlatform(dir *statedir.Dir, name, nvFile string, model *simtime.CostModel) (*sgx.Platform, error) {
	var issuer *epid.Issuer
	if raw, err := dir.Read(statedir.FileIssuer); err == nil {
		issuer, err = epid.ImportIssuer(raw)
		if err != nil {
			return nil, fmt.Errorf("translog: importing EPID issuer for seal platform: %w", err)
		}
	} else {
		var err error
		issuer, err = epid.NewIssuer(0x5EA1)
		if err != nil {
			return nil, err
		}
	}
	abs, err := filepath.Abs(nvFile)
	if err != nil {
		abs = nvFile
	}
	p, err := sgx.NewPlatform(name, issuer, model, sgx.WithNVFile(abs))
	if err != nil {
		return nil, fmt.Errorf("translog: opening seal platform (NV %s): %w", abs, err)
	}
	return p, nil
}

// mapSealedError annotates the sgx sealing errors with what they mean
// for an operator staring at a refused open, without hiding the
// sentinel from errors.Is.
func mapSealedError(err error) error {
	switch {
	case errors.Is(err, sgx.ErrSealSVNRollback):
		return fmt.Errorf("translog: sealed head was written by a newer enclave version — this anchor enclave was downgraded (not a statedir problem): %w", err)
	case errors.Is(err, sgx.ErrSealWrongKey):
		return fmt.Errorf("translog: sealed head cannot be unsealed under this platform and enclave identity — the store was copied from another machine, the platform NV file is not the one this store was sealed under (check the -sgx-nv path), or the sealed blob is corrupt: %w", err)
	default:
		return err
	}
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic("translog: encoding sealed-anchor ecall args: " + err.Error())
	}
	return data
}
