package ima

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
)

// PCRIndex is the PCR that IMA extends (PCR 10 by convention).
const PCRIndex = 10

// Entry is one ima-ng measurement record.
type Entry struct {
	// PCR is the register extended (always PCRIndex here).
	PCR int
	// TemplateHash is SHA-256 over the template data; this is the value
	// extended into the aggregate.
	TemplateHash [32]byte
	// Template is the template name (ima-ng).
	Template string
	// FileHash is the SHA-256 of the file content.
	FileHash [32]byte
	// Path is the hint recorded with the measurement.
	Path string
}

// templateHash computes the ima-ng template digest.
func templateHash(fileHash [32]byte, path string) [32]byte {
	h := sha256.New()
	h.Write([]byte("sha256:"))
	h.Write(fileHash[:])
	h.Write([]byte{0})
	h.Write([]byte(path))
	h.Write([]byte{0})
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// String renders the entry in ascii_runtime_measurements format:
//
//	10 <template-hash> ima-ng sha256:<file-hash> <path>
func (e Entry) String() string {
	return fmt.Sprintf("%d %s %s sha256:%s %s",
		e.PCR, hex.EncodeToString(e.TemplateHash[:]), e.Template,
		hex.EncodeToString(e.FileHash[:]), e.Path)
}

// List is an append-only measurement list with its running PCR aggregate.
type List struct {
	entries   []Entry
	aggregate [32]byte
}

// BootAggregatePath is the conventional first entry of an IMA list.
const BootAggregatePath = "boot_aggregate"

// NewList creates a list seeded with the boot_aggregate entry computed
// over the supplied boot state (TPM PCRs 0–7 digest in deployments).
func NewList(bootState []byte) *List {
	l := &List{}
	l.Append(sha256.Sum256(bootState), BootAggregatePath)
	return l
}

// Append adds a measurement and extends the aggregate. It returns the
// appended entry.
func (l *List) Append(fileHash [32]byte, path string) Entry {
	e := Entry{
		PCR:          PCRIndex,
		Template:     "ima-ng",
		FileHash:     fileHash,
		Path:         path,
		TemplateHash: templateHash(fileHash, path),
	}
	l.entries = append(l.entries, e)
	l.aggregate = extend(l.aggregate, e.TemplateHash)
	return e
}

// extend computes PCR-extend semantics: new = SHA-256(old ‖ value).
func extend(old, value [32]byte) [32]byte {
	h := sha256.New()
	h.Write(old[:])
	h.Write(value[:])
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Entries returns a copy of the list.
func (l *List) Entries() []Entry {
	out := make([]Entry, len(l.entries))
	copy(out, l.entries)
	return out
}

// Len reports the number of entries.
func (l *List) Len() int { return len(l.entries) }

// Aggregate returns the running PCR-10 value implied by the list.
func (l *List) Aggregate() [32]byte { return l.aggregate }

// Serialize renders the full ascii_runtime_measurements text.
func (l *List) Serialize() string {
	var b strings.Builder
	for _, e := range l.entries {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// ErrMalformedList reports an unparsable serialized measurement list.
var ErrMalformedList = errors.New("ima: malformed measurement list")

// ParseList parses Serialize output and recomputes the aggregate. Template
// hashes are recomputed and checked against the recorded values, so a list
// that was textually tampered fails to parse.
func ParseList(text string) (*List, error) {
	l := &List{}
	sc := bufio.NewScanner(strings.NewReader(text))
	// The buffer starts small and grows on demand up to the 1 MiB line
	// cap: an appraisal parses every list it sees, and most lines are
	// short.
	sc.Buffer(nil, 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.SplitN(line, " ", 5)
		if len(fields) != 5 {
			return nil, fmt.Errorf("%w: line %d: %d fields", ErrMalformedList, lineNo, len(fields))
		}
		if fields[0] != "10" {
			return nil, fmt.Errorf("%w: line %d: pcr %q", ErrMalformedList, lineNo, fields[0])
		}
		if fields[2] != "ima-ng" {
			return nil, fmt.Errorf("%w: line %d: template %q", ErrMalformedList, lineNo, fields[2])
		}
		th, err := hex.DecodeString(fields[1])
		if err != nil || len(th) != 32 {
			return nil, fmt.Errorf("%w: line %d: template hash", ErrMalformedList, lineNo)
		}
		fhText, ok := strings.CutPrefix(fields[3], "sha256:")
		if !ok {
			return nil, fmt.Errorf("%w: line %d: file hash algorithm", ErrMalformedList, lineNo)
		}
		fh, err := hex.DecodeString(fhText)
		if err != nil || len(fh) != 32 {
			return nil, fmt.Errorf("%w: line %d: file hash", ErrMalformedList, lineNo)
		}
		var fileHash [32]byte
		copy(fileHash[:], fh)
		e := l.Append(fileHash, fields[4])
		if hex.EncodeToString(e.TemplateHash[:]) != fields[1] {
			return nil, fmt.Errorf("%w: line %d: template hash mismatch (list tampered)", ErrMalformedList, lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ima: reading list: %w", err)
	}
	return l, nil
}
