// Package seal is the codec of the runtime's tool files, the pm2ckpt
// checkpoint image and the pm2serve-trace request trace. A sealed image
// has three parts: a magic line naming the format and its version, one
// encoding/json document, and a "digest %016x" line carrying the
// FNV-1a-64 of every byte before it.
//
// Decode refuses any other magic line, verifies the seal and decodes
// strictly: no unknown field, nothing after the document. The seal
// guards against accidental corruption only; a caller still checks
// whatever a crafted but well-formed document could say.
package seal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
)

// Encode returns the sealed image of v under magic (without its
// newline). v must marshal: an error is a programming fault and panics.
func Encode(magic string, v any) []byte { return Seal(body(magic, v)) }

// Digest returns the seal Encode(magic, v) carries.
func Digest(magic string, v any) uint64 { return sum(body(magic, v)) }

// Seal appends to body the digest line that seals it.
func Seal(body []byte) []byte { return append(body, trailer(body)...) }

// trailer returns the digest line that seals body.
func trailer(body []byte) string { return fmt.Sprintf("digest %016x\n", sum(body)) }

// body returns the image up to its digest line.
func body(magic string, v any) []byte {
	doc, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("seal: encoding a %s image: %v", magic, err))
	}
	b := make([]byte, 0, len(magic)+len(doc)+len("\n\ndigest 0123456789abcdef\n"))
	b = append(b, magic...)
	b = append(b, '\n')
	b = append(b, doc...)
	return append(b, '\n')
}

func sum(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

// Decode checks the magic line of data and its seal, and decodes its
// document into v.
func Decode(magic string, data []byte, v any) error {
	if !bytes.HasPrefix(data, append([]byte(magic), '\n')) {
		first, _, _ := bytes.Cut(data, []byte("\n"))
		return fmt.Errorf("not a %s image (starts %.32q)", magic, first)
	}
	idx := bytes.LastIndex(data, []byte("\ndigest "))
	if idx < 0 {
		return errors.New("no digest trailer (truncated?)")
	}
	body, got := data[:idx+1], data[idx+1:]
	if want := trailer(body); string(got) != want {
		return fmt.Errorf("digest mismatch: trailer %.26q, contents seal as %q (corrupt or truncated)", got, want)
	}
	dec := json.NewDecoder(bytes.NewReader(body[len(magic)+1:]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the document")
	}
	return nil
}
