package main

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"math/big"
	"slices"
	"time"
)

// On the shared machine the benchmark was built on, the same fixed
// processor work took 20–30% longer for seconds to minutes at a time with
// no time stolen: other tenants' work on the host slows every
// instruction. The clock therefore also times a fixed reference kernel of
// standard-library work beside the workload at every steal sample, and
// scales each wall-clock window and each window's processor
// time by the kernel's nominal time over its median time around the
// window. The figures then read as on a host running the kernel in
// refNominal. The kernel calls no vnfguard code, so a change to the
// program moves the figures by its own amount. It allocates about 1 KB
// per run, inside the ECDSA verification, against the megabytes per
// second the workloads allocate, so the program's garbage collection
// hardly touches it.
//
// The kernel is the kind of work that dominates the workloads: an ECDSA
// P-256 verification (TLS handshakes, quotes, tree heads), AES-GCM
// (enclave TLS records) and a sort (general integer code). Applied after
// the fact to five 20-second runs each of onboard and northbound, scaling
// every window by its ECDSA part's time cut the runs' inter-quartile
// spread of latency, rate and processor time per operation from
// 0.11–0.18 of the median to 0.03–0.07; WORKLOADS.md has the ten-run
// spreads with the kernel as it is.

// refNominal is the kernel's median time on the machine the benchmark was
// built on (an Intel Xeon vCPU with SHA and AES instructions) while it
// ran unhindered: scaled figures read as on that machine.
const refNominal = 205 * time.Microsecond

// refWindow is the fewest kernel runs one window's median is taken over:
// windows holding fewer widen around their middle.
const refWindow = 15

// refKernel is the reference work.
type refKernel struct {
	buf, sealed []byte
	nonce       []byte
	gcm         cipher.AEAD
	pub         *ecdsa.PublicKey
	digest      [32]byte
	r, s        *big.Int
	ints        []uint32
}

func newRefKernel() *refKernel {
	k := &refKernel{buf: make([]byte, 16<<10), nonce: make([]byte, 12), ints: make([]uint32, 1024)}
	k.sealed = make([]byte, 0, len(k.buf)+16)
	blk, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		panic(err)
	}
	if k.gcm, err = cipher.NewGCM(blk); err != nil {
		panic(err)
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		panic(err)
	}
	k.pub, k.digest = &key.PublicKey, sha256.Sum256([]byte("perfbench reference"))
	if k.r, k.s, err = ecdsa.Sign(rand.Reader, key, k.digest[:]); err != nil {
		panic(err)
	}
	return k
}

// run does the kernel's work once.
func (k *refKernel) run() {
	if !ecdsa.Verify(k.pub, k.digest[:], k.r, k.s) {
		panic("perfbench: reference signature does not verify")
	}
	for j := 0; j < 4; j++ {
		k.sealed = k.gcm.Seal(k.sealed[:0], k.nonce, k.buf, nil)
	}
	for i := range k.ints {
		k.ints[i] = uint32(i*7919) % 1021
	}
	slices.Sort(k.ints)
}

// time runs the kernel twice back to back and returns how long the
// second run took: the first brings the kernel's code and data into the
// processor's caches, so what the workload left in them does not reach
// the timing.
func (k *refKernel) time() time.Duration {
	k.run()
	start := time.Now()
	k.run()
	return time.Since(start)
}
