package bitmap

import "slices"

// Journal is the version stamp and bounded dirty-word journal of one
// node's slot bitmap, the server half of the delta gather (§4.4
// extension): every ownership mutation bumps the version and records
// which 64-bit words it touched, so a peer that cached the map at
// version v can be answered with just the words dirtied since v instead
// of the full 7 KB map.
//
// The journal is bounded: once it tracks more than its capacity of
// distinct dirty words, it truncates — the floor rises to the current
// version and queries older than the floor fall back to a full map.
// Truncation only ever costs bandwidth, never correctness.
type Journal struct {
	version uint64
	// floor is the oldest version (exclusive lower bound) the journal
	// can still answer incrementally; queries for versions below it
	// need a full map.
	floor uint64
	// dirty holds every word dirtied since the floor, once, with the
	// version at which it last changed, sorted by word index — the
	// deterministic wire order, so answering a query needs no sort.
	dirty []dirtyWord
	cap   int
}

type dirtyWord struct {
	word    int
	version uint64
}

// NewJournal returns an empty journal bounded to capWords distinct
// dirty words (minimum 1).
func NewJournal(capWords int) *Journal {
	if capWords < 1 {
		capWords = 1
	}
	return &Journal{cap: capWords}
}

// Version returns the current version stamp. Version 0 is the pristine
// initial distribution; every mutation bumps it by one.
func (j *Journal) Version() uint64 { return j.version }

// NoteBits records a mutation of bits [start, start+n) under a new
// version. When the dirty set outgrows the bound, the journal truncates:
// the set empties and the floor rises, so older cached views re-fetch
// the full map once and resync.
func (j *Journal) NoteBits(start, n int) {
	if n <= 0 {
		return
	}
	j.version++
	first, last := start/wordBits, (start+n-1)/wordBits
	i, _ := slices.BinarySearchFunc(j.dirty, first, func(d dirtyWord, w int) int { return d.word - w })
	for w := first; w <= last; w, i = w+1, i+1 {
		if i < len(j.dirty) && j.dirty[i].word == w {
			j.dirty[i].version = j.version
			continue
		}
		if len(j.dirty) == j.cap {
			// One more word outgrows the bound, and the set only grows
			// for the rest of the mutation: truncating now ends exactly
			// where finishing it would.
			j.Truncate()
			return
		}
		j.dirty = slices.Insert(j.dirty, i, dirtyWord{word: w, version: j.version})
	}
}

// Truncate empties the dirty set and raises the floor to the current
// version: every peer view cached at an older version must resync with
// one full map. Checkpoint capture uses it so the in-process
// continuation answers gathers exactly like a freshly restored cluster
// (whose journals start empty at the same version).
func (j *Journal) Truncate() {
	j.dirty = nil
	j.floor = j.version
}

// RestoreVersion reinstates a checkpointed version stamp. The journal
// restarts truncated at that version: incremental answers resume for
// mutations made after the restore.
func (j *Journal) RestoreVersion(v uint64) {
	j.version = v
	j.Truncate()
}

// AppendWordsSince appends to dst the indices of every word dirtied
// after version since, sorted ascending (the deterministic wire order),
// and returns the extended slice; a server that reuses dst answers a
// delta request without allocating. ok is false — and dst comes back
// unchanged — when the journal cannot answer: since predates the
// truncation floor or lies in the future, and the caller must ship the
// full map.
func (j *Journal) AppendWordsSince(dst []int, since uint64) (words []int, ok bool) {
	if since < j.floor || since > j.version {
		return dst, false
	}
	for _, d := range j.dirty {
		if d.version > since {
			dst = append(dst, d.word)
		}
	}
	return dst, true
}
