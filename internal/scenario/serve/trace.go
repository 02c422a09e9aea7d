package serve

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/simtime"
)

// TraceVersion is the trace-file format version. Decode accepts exactly
// this one; bumping it is a deliberate format change. v2 added the ckpt
// line binding a trace to the pm2ckpt image it was recorded against.
const TraceVersion = 2

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

// Digest returns the FNV-1a hash of the canonical request stream (the
// exact bytes Encode writes for the req lines). Recorded in the file
// footer and re-checked on decode and after replay-side synthesis, so a
// corrupted or hand-edited stream is caught before it silently produces
// a different run.
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

func reqLine(r Request) string {
	return fmt.Sprintf("req %d %s %s %d %d\n", int64(r.At), r.Cohort, r.Prog, r.Arg, r.Pref)
}

// Encode writes the trace in the versioned text format:
//
//	pm2serve-trace v2
//	policy <name>
//	nodes <n>
//	seed <decimal>
//	gather <mode>
//	arbiter <mode>
//	ckpt <fnv1a-hex>                           (0 = fresh-boot replay)
//	requests <count>
//	req <at-ns> <cohort> <prog> <arg> <pref>   (count lines)
//	digest <fnv1a-hex>
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "pm2serve-trace v%d\n", TraceVersion)
	fmt.Fprintf(bw, "policy %s\n", t.Policy)
	fmt.Fprintf(bw, "nodes %d\n", t.Nodes)
	fmt.Fprintf(bw, "seed %d\n", t.Seed)
	fmt.Fprintf(bw, "gather %s\n", t.Gather)
	fmt.Fprintf(bw, "arbiter %s\n", t.Arbiter)
	fmt.Fprintf(bw, "ckpt %016x\n", t.CkptDigest)
	fmt.Fprintf(bw, "requests %d\n", len(t.Requests))
	for _, r := range t.Requests {
		bw.WriteString(reqLine(r))
	}
	fmt.Fprintf(bw, "digest %016x\n", t.Digest())
	return bw.Flush()
}

// Decode parses a trace file, validating the version header, the node
// count, every request's preferred node, the request count and the
// stream digest. Nothing is sized by a count before its lines are read.
func Decode(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := func() (string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return "", err
			}
			return "", io.ErrUnexpectedEOF
		}
		return sc.Text(), nil
	}

	hdr, err := line()
	if err != nil {
		return nil, fmt.Errorf("serve: reading trace header: %w", err)
	}
	if want := fmt.Sprintf("pm2serve-trace v%d", TraceVersion); hdr != want {
		return nil, fmt.Errorf("serve: unsupported trace version (header %.40q, want %q)", hdr, want)
	}

	t := &Trace{}
	var count int
	field := func(key string) (string, error) {
		l, err := line()
		if err != nil {
			return "", fmt.Errorf("serve: reading %s: %w", key, err)
		}
		val, ok := strings.CutPrefix(l, key+" ")
		if !ok {
			return "", fmt.Errorf("serve: expected %q line, got %q", key, l)
		}
		return val, nil
	}
	if t.Policy, err = field("policy"); err != nil {
		return nil, err
	}
	v, err := field("nodes")
	if err != nil {
		return nil, err
	}
	if t.Nodes, err = strconv.Atoi(v); err != nil || t.Nodes < 1 {
		return nil, fmt.Errorf("serve: bad nodes %q", v)
	}
	if v, err = field("seed"); err != nil {
		return nil, err
	}
	if t.Seed, err = strconv.ParseUint(v, 10, 64); err != nil {
		return nil, fmt.Errorf("serve: bad seed %q: %w", v, err)
	}
	if t.Gather, err = field("gather"); err != nil {
		return nil, err
	}
	if t.Arbiter, err = field("arbiter"); err != nil {
		return nil, err
	}
	if v, err = field("ckpt"); err != nil {
		return nil, err
	}
	if t.CkptDigest, err = strconv.ParseUint(v, 16, 64); err != nil {
		return nil, fmt.Errorf("serve: bad ckpt digest %q: %w", v, err)
	}
	if v, err = field("requests"); err != nil {
		return nil, err
	}
	if count, err = strconv.Atoi(v); err != nil || count < 0 {
		return nil, fmt.Errorf("serve: bad request count %q", v)
	}

	for i := 0; i < count; i++ {
		l, err := line()
		if err != nil {
			return nil, fmt.Errorf("serve: reading request %d/%d: %w", i+1, count, err)
		}
		req, err := parseReq(l)
		if err == nil && req.Pref >= t.Nodes {
			err = fmt.Errorf("pref %d outside %d nodes", req.Pref, t.Nodes)
		}
		if err != nil {
			return nil, fmt.Errorf("serve: request %d: %w", i+1, err)
		}
		t.Requests = append(t.Requests, req)
	}

	if v, err = field("digest"); err != nil {
		return nil, err
	}
	want, err := strconv.ParseUint(v, 16, 64)
	if err != nil {
		return nil, fmt.Errorf("serve: bad digest %q: %w", v, err)
	}
	if got := t.Digest(); got != want {
		return nil, fmt.Errorf("serve: trace digest mismatch: file says %016x, stream hashes to %016x", want, got)
	}
	return t, nil
}

func parseReq(l string) (Request, error) {
	fields := strings.Fields(l)
	if len(fields) != 6 || fields[0] != "req" {
		return Request{}, fmt.Errorf("malformed line %q", l)
	}
	at, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || at < 0 {
		return Request{}, fmt.Errorf("bad arrival time %q", fields[1])
	}
	arg, err := strconv.ParseUint(fields[4], 10, 32)
	if err != nil {
		return Request{}, fmt.Errorf("bad arg %q", fields[4])
	}
	pref, err := strconv.Atoi(fields[5])
	if err != nil || pref < 0 {
		return Request{}, fmt.Errorf("bad pref %q", fields[5])
	}
	return Request{
		At:     simtime.Time(at),
		Cohort: fields[2],
		Prog:   fields[3],
		Arg:    uint32(arg),
		Pref:   pref,
	}, nil
}
