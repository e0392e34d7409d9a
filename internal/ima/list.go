package ima

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
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

// appendTemplateData appends the ima-ng template data the template hash
// covers: "sha256:" ‖ file hash ‖ NUL ‖ path ‖ NUL.
func appendTemplateData(b []byte, fileHash *[32]byte, path string) []byte {
	b = append(b, "sha256:"...)
	b = append(b, fileHash[:]...)
	b = append(b, 0)
	b = append(b, path...)
	return append(b, 0)
}

// templateHash computes the ima-ng template digest.
func templateHash(fileHash [32]byte, path string) [32]byte {
	return sha256.Sum256(appendTemplateData(nil, &fileHash, path))
}

// appendText appends the entry in ascii_runtime_measurements format:
//
//	10 <template-hash> ima-ng sha256:<file-hash> <path>
func (e *Entry) appendText(b []byte) []byte {
	b = strconv.AppendInt(b, int64(e.PCR), 10)
	b = append(b, ' ')
	b = hex.AppendEncode(b, e.TemplateHash[:])
	b = append(b, ' ')
	b = append(b, e.Template...)
	b = append(b, " sha256:"...)
	b = hex.AppendEncode(b, e.FileHash[:])
	b = append(b, ' ')
	return append(b, e.Path...)
}

// textLen is the length of the entry's appendText output.
func (e *Entry) textLen() int {
	var pcr [20]byte
	return len(strconv.AppendInt(pcr[:0], int64(e.PCR), 10)) +
		1 + 2*len(e.TemplateHash) + 1 + len(e.Template) + len(" sha256:") + 2*len(e.FileHash) + 1 + len(e.Path)
}

// String renders the entry in ascii_runtime_measurements format.
func (e Entry) String() string { return string(e.appendText(nil)) }

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
	l.add(e)
	return e
}

// add appends an entry whose template hash is already computed and
// extends the aggregate with it.
func (l *List) add(e Entry) {
	l.entries = append(l.entries, e)
	l.aggregate = extend(l.aggregate, e.TemplateHash)
}

// extend computes PCR-extend semantics: new = SHA-256(old ‖ value).
func extend(old, value [32]byte) [32]byte {
	var buf [64]byte
	copy(buf[:32], old[:])
	copy(buf[32:], value[:])
	return sha256.Sum256(buf[:])
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

// Serialize renders the full ascii_runtime_measurements text. The text
// is written into one buffer sized up front, so rendering costs the same
// few allocations whatever the list length.
func (l *List) Serialize() string {
	n := 0
	for i := range l.entries {
		n += l.entries[i].textLen() + 1
	}
	var b strings.Builder
	b.Grow(n)
	var scratch [256]byte
	line := scratch[:0]
	for i := range l.entries {
		line = append(l.entries[i].appendText(line[:0]), '\n')
		b.Write(line)
	}
	return b.String()
}

// minLineLen is the length of the shortest valid line with its newline:
// an ima-ng entry with an empty path.
const minLineLen = len("10 ") + 64 + len(" ima-ng sha256:") + 64 + len(" \n")

// ErrMalformedList reports an unparsable serialized measurement list.
var ErrMalformedList = errors.New("ima: malformed measurement list")

// ParseList parses Serialize output and recomputes the aggregate. Template
// hashes are recomputed and checked against the recorded values, so a list
// that was textually tampered fails to parse.
func ParseList(text string) (*List, error) {
	// Size the entry slice once, for as many minimal lines as the text
	// could hold: a valid list never outgrows it, and a text of blank
	// lines cannot buy more entries than it has bytes.
	l := &List{entries: make([]Entry, 0, len(text)/minLineLen+1)}
	sc := bufio.NewScanner(strings.NewReader(text))
	// The buffer starts small and grows on demand up to the 1 MiB line
	// cap: an appraisal parses every list it sees, and most lines are
	// short.
	sc.Buffer(nil, 1024*1024)
	// data is the template-data buffer, reused from line to line.
	var data []byte
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		// Split as strings.SplitN(line, " ", 5) would: the path, the
		// fifth field, keeps any spaces it contains.
		var fields [5][]byte
		nf, rest := 0, line
		for ; nf < len(fields)-1; nf++ {
			f, r, ok := bytes.Cut(rest, []byte(" "))
			if !ok {
				break
			}
			fields[nf], rest = f, r
		}
		fields[nf] = rest
		if nf++; nf != len(fields) {
			return nil, fmt.Errorf("%w: line %d: %d fields", ErrMalformedList, lineNo, nf)
		}
		if string(fields[0]) != "10" {
			return nil, fmt.Errorf("%w: line %d: pcr %q", ErrMalformedList, lineNo, fields[0])
		}
		if string(fields[2]) != "ima-ng" {
			return nil, fmt.Errorf("%w: line %d: template %q", ErrMalformedList, lineNo, fields[2])
		}
		// The recorded template hash is decoded only to validate it; it
		// is checked against the recomputed one as text below.
		var recorded [32]byte
		if len(fields[1]) != 2*len(recorded) {
			return nil, fmt.Errorf("%w: line %d: template hash", ErrMalformedList, lineNo)
		}
		if _, err := hex.Decode(recorded[:], fields[1]); err != nil {
			return nil, fmt.Errorf("%w: line %d: template hash", ErrMalformedList, lineNo)
		}
		fhText, ok := bytes.CutPrefix(fields[3], []byte("sha256:"))
		if !ok {
			return nil, fmt.Errorf("%w: line %d: file hash algorithm", ErrMalformedList, lineNo)
		}
		e := Entry{PCR: PCRIndex, Template: "ima-ng"}
		if len(fhText) != 2*len(e.FileHash) {
			return nil, fmt.Errorf("%w: line %d: file hash", ErrMalformedList, lineNo)
		}
		if _, err := hex.Decode(e.FileHash[:], fhText); err != nil {
			return nil, fmt.Errorf("%w: line %d: file hash", ErrMalformedList, lineNo)
		}
		// Copy the path out of the scanner's buffer, which the next Scan
		// overwrites. The copy holds the path alone, so map keys made
		// from it (GoldenDB) do not pin whole lines.
		e.Path = string(fields[4])
		data = appendTemplateData(data[:0], &e.FileHash, e.Path)
		e.TemplateHash = sha256.Sum256(data)
		// Compare as text, as recorded: hex that decodes to the right
		// digest but is not the canonical lower-case rendering is a
		// rewritten line.
		var computed [64]byte
		hex.Encode(computed[:], e.TemplateHash[:])
		if !bytes.Equal(computed[:], fields[1]) {
			return nil, fmt.Errorf("%w: line %d: template hash mismatch (list tampered)", ErrMalformedList, lineNo)
		}
		l.add(e)
	}
	if err := sc.Err(); err != nil {
		// The only scanner error over an in-memory list is a line past
		// the cap: malformed, like every other refusal here.
		return nil, fmt.Errorf("%w: reading list: %w", ErrMalformedList, err)
	}
	return l, nil
}
