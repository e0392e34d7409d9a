package sgx

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"vnfguard/internal/statedir"
)

// Monotonic counters: the simulated equivalent of the SGX Platform
// Services counters. A counter lives in the platform's non-volatile
// store — not in any enclave and not on the disk an attacker can rewind
// — and only ever moves forward, which is exactly the primitive a
// sealed blob needs to prove it is the *newest* thing the enclave ever
// sealed, not merely *a* thing it once sealed. Counters are namespaced
// by the calling enclave's signer identity (MRSIGNER + product ID),
// PSE-style, so an upgraded enclave (higher SVN, same vendor) keeps its
// counters while an unrelated enclave cannot touch them.

// Counter errors.
var (
	// ErrCounterStore reports that the platform's non-volatile store
	// could not be durably updated; the increment did not happen.
	ErrCounterStore = errors.New("sgx: monotonic counter store unavailable")
)

// nvStore models the platform's non-volatile hardware state: the fused
// root-key seed and the monotonic counters. Memory-backed by default
// (one process lifetime = one machine); file-backed via WithNVFile so
// multi-process deployments keep their "hardware" across runs. The NV
// file stands in for fuses and flash — it is not part of any statedir a
// rollback attacker is assumed to control.
type nvStore struct {
	mu       sync.Mutex
	path     string // "" = memory only
	seed     []byte // root-key seed when file-backed
	counters map[string]uint64
}

// nvImage is the NV file's JSON layout.
type nvImage struct {
	Seed     []byte            `json:"seed"`
	Counters map[string]uint64 `json:"counters"`
}

func newMemNV() *nvStore {
	return &nvStore{counters: make(map[string]uint64)}
}

// openNV loads (or initialises) the file-backed NV store.
func openNV(path string) (*nvStore, error) {
	nv := &nvStore{path: path, counters: make(map[string]uint64)}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		nv.seed = make([]byte, 32)
		if _, err := rand.Read(nv.seed); err != nil {
			return nil, fmt.Errorf("sgx: fusing NV seed: %w", err)
		}
		if err := nv.persistLocked(); err != nil {
			return nil, err
		}
		return nv, nil
	case err != nil:
		return nil, fmt.Errorf("sgx: reading NV store: %w", err)
	}
	var img nvImage
	if err := json.Unmarshal(data, &img); err != nil {
		return nil, fmt.Errorf("sgx: NV store undecodable: %w", err)
	}
	if len(img.Seed) == 0 {
		return nil, errors.New("sgx: NV store has no seed")
	}
	nv.seed = img.Seed
	if img.Counters != nil {
		nv.counters = img.Counters
	}
	return nv, nil
}

// persistLocked atomically and durably rewrites the NV file
// (statedir.ReplaceFile with sync): hardware counters do not regress on
// power failure, so neither may their file stand-in. Callers hold
// nv.mu (or have exclusive access during construction).
func (nv *nvStore) persistLocked() error {
	if nv.path == "" {
		return nil
	}
	data, err := json.Marshal(nvImage{Seed: nv.seed, Counters: nv.counters})
	if err == nil {
		err = statedir.ReplaceFile(nv.path, data, true)
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCounterStore, err)
	}
	return nil
}

// mergeDiskLocked folds the on-disk counter values into memory, keeping
// the maximum of each: a counter observed higher on disk (another
// process sharing this NV file) must never be rewritten lower by our
// stale snapshot. Callers hold nv.mu.
func (nv *nvStore) mergeDiskLocked() {
	if nv.path == "" {
		return
	}
	data, err := os.ReadFile(nv.path)
	if err != nil {
		return // persistLocked will surface real I/O trouble
	}
	var img nvImage
	if err := json.Unmarshal(data, &img); err != nil {
		return
	}
	for k, v := range img.Counters {
		if v > nv.counters[k] {
			nv.counters[k] = v
		}
	}
}

// read returns a counter's value and whether it exists.
func (nv *nvStore) read(key string) (uint64, bool) {
	nv.mu.Lock()
	defer nv.mu.Unlock()
	v, ok := nv.counters[key]
	return v, ok
}

// bump increments a counter (creating it at zero first) and durably
// persists the new value before returning it: a counter whose increment
// was acknowledged must never be observed at the old value again. The
// on-disk image is re-merged first so a concurrent process sharing the
// NV file cannot have its increments reverted by our stale snapshot —
// though an NV file, like the hardware it models, is expected to have
// one owning process at a time (see WithNVFile).
func (nv *nvStore) bump(key string) (uint64, error) {
	nv.mu.Lock()
	defer nv.mu.Unlock()
	nv.mergeDiskLocked()
	nv.counters[key]++
	if err := nv.persistLocked(); err != nil {
		nv.counters[key]--
		return 0, err
	}
	return nv.counters[key], nil
}

// counterKey namespaces a counter name under the owning enclave's
// signer identity, mirroring the PSE access policy: same-vendor
// enclaves (any SVN) share the counter, everyone else sees their own
// namespace.
func counterKey(id Identity, name string) string {
	return fmt.Sprintf("%x/%d/%s", id.MRSIGNER[:8], id.ISVProdID, name)
}

// ReadMonotonicCounter returns the named counter's current value and
// whether it has ever been incremented. Charges OpCounterRead.
func (c *Context) ReadMonotonicCounter(name string) (uint64, bool) {
	c.e.platform.charge(opCtrRead)
	return c.e.platform.nv.read(counterKey(c.e.identity, name))
}

// IncrementMonotonicCounter advances the named counter (creating it on
// first use) and returns the new value, durably persisted in platform
// NV before the call returns. Charges OpCounterBump.
func (c *Context) IncrementMonotonicCounter(name string) (uint64, error) {
	c.e.platform.charge(opCtrBump)
	return c.e.platform.nv.bump(counterKey(c.e.identity, name))
}

// SealedCounterBlob is the fixed-layout payload an enclave seals to pin
// a Merkle log's newest committed head to a monotonic counter value:
// counter(8) ‖ tree_size(8) ‖ root_hash(32), little-endian.
type SealedCounterBlob struct {
	Counter  uint64
	TreeSize uint64
	RootHash [32]byte
}

const sealedCounterBlobLen = 8 + 8 + 32

// Encode serialises the blob payload.
func (b SealedCounterBlob) Encode() []byte {
	out := make([]byte, sealedCounterBlobLen)
	binary.LittleEndian.PutUint64(out[0:8], b.Counter)
	binary.LittleEndian.PutUint64(out[8:16], b.TreeSize)
	copy(out[16:], b.RootHash[:])
	return out
}

// DecodeSealedCounterBlob parses an Encode()d payload.
func DecodeSealedCounterBlob(data []byte) (SealedCounterBlob, error) {
	var b SealedCounterBlob
	if len(data) != sealedCounterBlobLen {
		return b, fmt.Errorf("sgx: sealed counter blob is %d bytes, want %d", len(data), sealedCounterBlobLen)
	}
	b.Counter = binary.LittleEndian.Uint64(data[0:8])
	b.TreeSize = binary.LittleEndian.Uint64(data[8:16])
	copy(b.RootHash[:], data[16:])
	return b, nil
}
