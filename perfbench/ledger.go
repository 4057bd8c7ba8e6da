package main

import (
	"fmt"
	"math/bits"

	"cpq/internal/pq"
	"cpq/internal/rng"
)

// Every item the benchmark inserts carries a value tag: its source (0 for
// the prefill, 1+w for worker or connection w) above a per-source
// sequence number. Tags are unique, so the items that come out of the
// queue can be checked against the ones that went in.
const seqBits = 48

func tag(src, seq uint64) uint64 { return src<<seqBits | seq }

func srcOf(v uint64) uint64 { return v >> seqBits }

func seqOf(v uint64) uint64 { return v & (1<<seqBits - 1) }

// itemHash mixes a pair into 64 bits; sums of it are a multiset hash.
func itemHash(kv pq.KV) uint64 {
	s := kv.Value ^ kv.Key*0xff51afd7ed558ccd
	return rng.SplitMix64(&s)
}

// ledger is one worker's account of the items it saw acknowledged. It is
// owned by one goroutine; merge combines them after the workers joined.
type ledger struct {
	ins, del       uint64
	insSum, delSum uint64
	maxSeq         []uint64   // per source: 1 + the highest sequence deleted
	unknown        uint64     // deleted items whose source was never used
	seen           [][]uint64 // exact accounting: per source, one bit per deleted sequence number
	dup            uint64     // exact accounting: deletions of a tag already deleted
	exact          bool
}

func newLedger(sources int, exact bool) *ledger {
	return &ledger{maxSeq: make([]uint64, sources), seen: make([][]uint64, sources), exact: exact}
}

// mark sets the bit of tag (src, seq) in set, growing it as needed, and
// reports whether it was set already.
func mark(set [][]uint64, src, seq uint64) (dup bool) {
	w := int(seq / 64)
	if w >= len(set[src]) {
		set[src] = append(set[src], make([]uint64, max(w+1, 2*len(set[src]))-len(set[src]))...)
	}
	bit := uint64(1) << (seq % 64)
	dup = set[src][w]&bit != 0
	set[src][w] |= bit
	return dup
}

func (l *ledger) inserted(kv pq.KV) {
	l.ins++
	l.insSum += itemHash(kv)
}

func (l *ledger) deleted(kv pq.KV) {
	l.del++
	l.delSum += itemHash(kv)
	src := srcOf(kv.Value)
	if src >= uint64(len(l.maxSeq)) {
		l.unknown++
		return
	}
	if s := seqOf(kv.Value) + 1; s > l.maxSeq[src] {
		l.maxSeq[src] = s
	}
	if l.exact && mark(l.seen, src, seqOf(kv.Value)) {
		l.dup++
	}
}

func (l *ledger) merge(o *ledger) {
	l.ins += o.ins
	l.del += o.del
	l.insSum += o.insSum
	l.delSum += o.delSum
	l.unknown += o.unknown
	for i, s := range o.maxSeq {
		l.maxSeq[i] = max(l.maxSeq[i], s)
	}
	l.dup += o.dup
	for src, words := range o.seen {
		if n := len(words); n > len(l.seen[src]) {
			l.seen[src] = append(l.seen[src], make([]uint64, n-len(l.seen[src]))...)
		}
		for i, w := range words {
			l.dup += uint64(bits.OnesCount64(l.seen[src][i] & w))
			l.seen[src][i] |= w
		}
	}
}

// conserve checks value-tag conservation: every deleted item was issued
// once, and the deleted items plus the residue left in the queue are the
// inserted ones. issued[src] is how many tags source src handed out. The
// residue is checked item by item; deleted items are checked item by item
// when the ledger marked them (exact mode) and by count, tag range and a
// 64-bit multiset hash of (key, value) otherwise.
func conserve(l *ledger, issued []uint64, residue []pq.KV) []string {
	var bad []string
	if l.unknown > 0 {
		bad = append(bad, fmt.Sprintf("conservation: %d deleted items carry an unknown source tag", l.unknown))
	}
	for src, s := range l.maxSeq {
		if s > issued[src] {
			bad = append(bad, fmt.Sprintf("conservation: source %d issued %d tags, but tag %d was deleted", src, issued[src], s-1))
		}
	}
	// Deleted tags beyond what their source issued are caught by maxSeq
	// above, so the residue starts from the deleted tags' bits.
	seen := make([][]uint64, len(issued))
	if l.exact {
		seen = l.seen
	}
	dup, phantom := l.dup, uint64(0)
	var resSum uint64
	for _, kv := range residue {
		src, seq := srcOf(kv.Value), seqOf(kv.Value)
		if src >= uint64(len(issued)) || seq >= issued[src] {
			phantom++
		} else if mark(seen, src, seq) {
			dup++
		}
		resSum += itemHash(kv)
	}
	if dup > 0 {
		bad = append(bad, fmt.Sprintf("conservation: %d items came out of the queue twice", dup))
	}
	if phantom > 0 {
		bad = append(bad, fmt.Sprintf("conservation: %d items came out that were never inserted", phantom))
	}
	if got := l.del + uint64(len(residue)); got != l.ins {
		bad = append(bad, fmt.Sprintf("conservation: %d inserted, but %d deleted + %d residue = %d", l.ins, l.del, len(residue), got))
	} else if l.delSum+resSum != l.insSum {
		bad = append(bad, "conservation: deleted + residue items differ from the inserted ones (multiset hash)")
	}
	return bad
}
