package serve

import (
	"fmt"

	"repro/internal/seal"
)

// traceMagic names the trace-file format and its version. Decode
// accepts exactly this one; bumping it is a deliberate format change.
const traceMagic = "pm2serve-trace v3"

// Trace is a recorded serving workload: the harness parameters it was
// synthesized against plus the fully-expanded request stream. Replaying
// a Trace bypasses synthesis entirely — the stream on disk is the
// stream that runs — so a recorded run is byte-identical no matter what
// happens to the generator defaults later.
type Trace struct {
	Policy  string
	Nodes   int
	Seed    uint64
	Gather  string
	Arbiter string
	// CkptDigest binds the trace to a pm2ckpt checkpoint image: the
	// checkpoint's sealed FNV-1a digest, or 0 when the trace replays on
	// a freshly booted cluster. A replay that starts from a checkpoint
	// must present an image with this exact digest.
	CkptDigest uint64
	Requests   []Request
}

// Digest returns the FNV-1a hash of the request stream in its canonical
// text form (reqLine). It names a stream independently of the file that
// carries it: pm2trace prints it, and the perf harness hashes it into
// its pinned workload digests.
func (t *Trace) Digest() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, r := range t.Requests {
		for _, b := range []byte(reqLine(r)) {
			h ^= uint64(b)
			h *= prime
		}
	}
	return h
}

// reqLine is a request's canonical form, what Digest hashes.
func reqLine(r Request) string {
	return fmt.Sprintf("req %d %s %s %d %d\n", int64(r.At), r.Cohort, r.Prog, r.Arg, r.Pref)
}

// Encode returns the trace as a sealed pm2serve-trace v3 image.
func (t *Trace) Encode() []byte { return seal.Encode(traceMagic, t) }

// Decode verifies and parses a pm2serve-trace v3 image. Beyond the
// seal's checks it refuses a cluster without nodes and a request whose
// preferred node is not a rank of the cluster or whose arrival precedes
// time zero; the JSON decoder already range-checks each field's type.
func Decode(data []byte) (*Trace, error) {
	t := &Trace{}
	if err := seal.Decode(traceMagic, data, t); err != nil {
		return nil, fmt.Errorf("serve: trace: %w", err)
	}
	if t.Nodes < 1 {
		return nil, fmt.Errorf("serve: trace of %d nodes", t.Nodes)
	}
	for i, r := range t.Requests {
		switch {
		case r.Pref < 0 || r.Pref >= t.Nodes:
			return nil, fmt.Errorf("serve: request %d: pref %d outside %d nodes", i+1, r.Pref, t.Nodes)
		case r.At < 0:
			return nil, fmt.Errorf("serve: request %d: arrival at %d ns", i+1, int64(r.At))
		}
	}
	return t, nil
}
