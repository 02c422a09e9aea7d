// Package trace collects the execution output of a PM2 cluster: the
// "[node0] value = 1" lines produced by pm2_printf and the bare
// "Segmentation fault" lines of crashing threads, exactly as the paper's
// figures show them (Figs. 1–4, 8, 9).
package trace

import (
	"io"
	"regexp"
	"strings"
)

// Log accumulates cluster output. It has no locking of its own: every
// append comes from an event internal/simtime runs on the driving
// goroutine in its deterministic (at, seq) order, so the log's bytes
// are a pure function of the run.
type Log struct {
	lines   []string
	partial map[int]*strings.Builder
	w       io.Writer
}

// New returns an empty log.
func New() *Log {
	return &Log{partial: make(map[int]*strings.Builder)}
}

// SetWriter mirrors completed lines to w as they are emitted (for the
// command-line tools).
func (l *Log) SetWriter(w io.Writer) { l.w = w }

func (l *Log) emit(line string) {
	l.lines = append(l.lines, line)
	if l.w != nil {
		io.WriteString(l.w, line+"\n")
	}
}

// Printf appends text produced by pm2_printf on node. Output is buffered
// per node and flushed line-by-line with the "[nodeN] " prefix, matching
// the pm2load console format.
func (l *Log) Printf(node int, text string) {
	b, ok := l.partial[node]
	if !ok {
		b = &strings.Builder{}
		l.partial[node] = b
	}
	for _, r := range text {
		if r == '\n' {
			l.emit("[node" + itoa(node) + "] " + b.String())
			b.Reset()
			continue
		}
		b.WriteRune(r)
	}
}

// Raw appends an untagged line (e.g. "Segmentation fault").
func (l *Log) Raw(line string) { l.emit(line) }

// Flush force-completes any partial line on node.
func (l *Log) Flush(node int) {
	if b, ok := l.partial[node]; ok && b.Len() > 0 {
		l.emit("[node" + itoa(node) + "] " + b.String())
		b.Reset()
	}
}

// Restore replaces the line history with a checkpointed one. Partial
// per-node output is discarded: checkpoints are only taken quiesced,
// when no thread holds an unterminated line.
func (l *Log) Restore(lines []string) {
	l.lines = append([]string(nil), lines...)
	l.partial = make(map[int]*strings.Builder)
}

// Lines returns the completed lines so far.
func (l *Log) Lines() []string { return append([]string(nil), l.lines...) }

// String returns the whole log as one newline-joined string.
func (l *Log) String() string { return strings.Join(l.lines, "\n") }

// Len returns the number of completed lines.
func (l *Log) Len() int { return len(l.lines) }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	neg := n < 0
	if neg {
		n = -n
	}
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

var hexToken = regexp.MustCompile(`\b[0-9a-f]{7,8}\b`)

// MaskPointers replaces printed pointer values (7–8 hex digits, as produced
// by %p) with "&ADDR", so traces can be compared across configurations where
// allocation addresses differ.
func MaskPointers(lines []string) []string {
	out := make([]string, len(lines))
	for i, s := range lines {
		out[i] = hexToken.ReplaceAllString(s, "&ADDR")
	}
	return out
}

// Equal compares two line slices and returns the index of the first
// difference, or -1 if they are identical.
func Equal(a, b []string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}
