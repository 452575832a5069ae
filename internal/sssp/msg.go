package sssp

import (
	"encoding/binary"
	"errors"

	"parsssp/internal/graph"
)

// Records. Record kind is implied by the superstep (relax supersteps
// carry only relax records, request supersteps only requests).
//
//	relax:   v, parent, dist — "set d(v) = min(d(v), dist), recording
//	         parent as the tree predecessor if the relaxation wins"
//	request: u, v, w — "if u is in the current bucket, send
//	         relax(v, d(u)+w, parent=u) to v's owner"
//
// Parents make the result a full Graph500-style SSSP tree at the cost of
// one parent id per relaxation message.
//
// Records travel one path. The relax loops stage them typed, per thread
// and destination (relaxRec, requestRec; see queryState.relaxOut), and
// one per-destination encoder turns a destination's staging into a
// batch: a uvarint record count, then varint-packed records. Relax
// batches are stably sorted by destination vertex so ids delta-encode
// (usually 1–2 bytes); parent and dist are plain uvarints. Request
// batches stay in emission order (sorting them would permute the pull
// responses derived from them) with u, v, w as plain uvarints. A typical
// relax record takes ~5–7 bytes. Decoding is sequential via relaxReader
// / requestReader, which treat every batch as untrusted input. See
// DESIGN.md "Wire format" for the layout and the argument that sorting
// relax batches cannot change results.

// recKind tells the codec which record schema a superstep carries.
type recKind int

const (
	relaxKind recKind = iota
	requestKind
)

// ---- parent-field tagging ---------------------------------------------------

// The parent field of a relax record carries, besides the tree
// predecessor's id, one flag in its lowest bit: whether the offering
// edge has zero weight. Parent election needs the distinction (see
// applyRelaxIn): offers over zero-weight edges must not compete in the
// canonical equal-distance election, because inside a cluster of
// equal-distance vertices joined by zero-weight edges a pointwise min-id
// election can pick parents that form a cycle. The codec carries the
// field opaquely, so only the emit and apply sites know about the tag.
// Shifting the id left one bit caps vertex ids at 2^31-1, far above
// what the int-indexed CSR can host anyway.

// tagParent packs a parent id and the zero-weight flag of the offering
// edge into a relax record's parent field.
func tagParent(parent graph.Vertex, w graph.Weight) graph.Vertex {
	t := parent << 1
	if w == 0 {
		t |= 1
	}
	return t
}

// untagParent splits a relax record's parent field back into the
// predecessor id and the zero-weight flag.
func untagParent(t graph.Vertex) (parent graph.Vertex, zeroW bool) {
	return t >> 1, t&1 == 1
}

// ---- batch codec -----------------------------------------------------------

// relaxRec is a relax record as staged and sorted before encoding.
// parent is the tagged field (see tagParent).
type relaxRec struct {
	v      graph.Vertex
	parent graph.Vertex
	dist   graph.Dist
}

// requestRec is a pull or repair request record as staged before
// encoding.
type requestRec struct {
	u, v graph.Vertex
	w    graph.Weight
}

// relaxSorter holds the pooled scratch buffer of the stable radix sort
// used on relax batches. Embedded by value in the engine so repeated
// sorts reuse the same storage.
type relaxSorter struct{ aux []relaxRec }

// encodeRelaxBatch appends the batch encoding of recs to buf. recs must be
// sorted by v ascending (the delta encoding requires it); use
// sortRelaxBatch to get there without changing per-vertex record order.
func encodeRelaxBatch(buf []byte, recs []relaxRec) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	prev := graph.Vertex(0)
	for _, rec := range recs {
		buf = binary.AppendUvarint(buf, uint64(rec.v-prev))
		prev = rec.v
		buf = binary.AppendUvarint(buf, uint64(rec.parent))
		buf = binary.AppendUvarint(buf, uint64(rec.dist))
	}
	return buf
}

// sortRelaxBatch stably sorts recs by destination vertex: insertion sort
// for small batches, an LSD radix sort on the vertex id (pooled scratch,
// trivial byte passes skipped) for the rest. Both are stable, which the
// determinism argument needs — equal-vertex records must keep their
// emission order, or the first-wins parent of a strict improvement would
// depend on the sort.
// sort.Stable's in-place merging dominated CPU profiles of the encode
// path about 4x, hence the hand-rolled sort.
func sortRelaxBatch(s *relaxSorter, recs []relaxRec) {
	n := len(recs)
	if n < 64 {
		for i := 1; i < n; i++ {
			rec := recs[i]
			j := i - 1
			for j >= 0 && recs[j].v > rec.v {
				recs[j+1] = recs[j]
				j--
			}
			recs[j+1] = rec
		}
		return
	}
	var hist [4][256]int
	for i := range recs {
		v := recs[i].v
		hist[0][v&0xFF]++
		hist[1][(v>>8)&0xFF]++
		hist[2][(v>>16)&0xFF]++
		hist[3][(v>>24)&0xFF]++
	}
	if cap(s.aux) < n {
		s.aux = make([]relaxRec, n)
	}
	from, to := recs, s.aux[:n]
	for pass := 0; pass < 4; pass++ {
		shift := uint(8 * pass)
		h := &hist[pass]
		if h[(from[0].v>>shift)&0xFF] == n {
			continue // every key shares this byte; nothing to reorder
		}
		off := 0
		for b := 0; b < 256; b++ {
			c := h[b]
			h[b] = off
			off += c
		}
		for i := range from {
			b := (from[i].v >> shift) & 0xFF
			to[h[b]] = from[i]
			h[b]++
		}
		from, to = to, from
	}
	if &from[0] != &recs[0] {
		copy(recs, from)
	}
}

// combineRelax min-combines, in place, each run of same-vertex records
// in a batch sorted by vertex and returns the shortened batch. Let d* be
// a run's smallest distance and f its first record at d*. A
// positive-weight f becomes the run's only record, carrying the smallest
// positive-weight parent at d*. A zero-weight f is kept as it is,
// followed by one record carrying the smallest positive-weight parent at
// d* after it, if there is one. Applied in order, the combined run
// leaves any receiver in the (dist, parent) state the full run would:
// records above d* either lose to f or are overwritten by it, and of
// the records at d* only f's first-come strict win and the min-id
// election among positive-weight offers can matter (see applyRelaxIn and
// DESIGN.md "Sender-side combining").
func combineRelax(recs []relaxRec) []relaxRec {
	w := 0 // write index; never passes the run being read
	for i := 0; i < len(recs); {
		f := recs[i]
		minPos, found := f.parent, f.parent&1 == 0 // smallest positive-weight parent at f.dist
		j := i + 1
		for ; j < len(recs) && recs[j].v == f.v; j++ {
			switch rec := &recs[j]; {
			case rec.dist < f.dist:
				f = *rec
				minPos, found = rec.parent, rec.parent&1 == 0
			case rec.dist == f.dist && rec.parent&1 == 0 && (!found || rec.parent < minPos):
				minPos, found = rec.parent, true
			}
		}
		if f.parent&1 == 0 {
			f.parent = minPos
		}
		recs[w] = f
		w++
		if f.parent&1 == 1 && found {
			recs[w] = relaxRec{f.v, minPos, f.dist}
			w++
		}
		i = j
	}
	return recs[:w]
}

// encodeRequestBatch appends the batch encoding of recs to buf. Requests
// are NOT sorted: the responder walks them in order, and permuting
// requests would permute the emitted responses.
func encodeRequestBatch(buf []byte, recs []requestRec) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	for _, rec := range recs {
		buf = binary.AppendUvarint(buf, uint64(rec.u))
		buf = binary.AppendUvarint(buf, uint64(rec.v))
		buf = binary.AppendUvarint(buf, uint64(rec.w))
	}
	return buf
}

// wireRecordCount returns the record count a batch's header declares,
// without decoding the records. Malformed headers count as zero,
// matching the readers.
func wireRecordCount(buf []byte) int {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return 0
	}
	return int(n)
}

// totalWireRecords sums wireRecordCount over received buffers.
func totalWireRecords(in [][]byte) int {
	total := 0
	for _, buf := range in {
		total += wireRecordCount(buf)
	}
	return total
}

// ---- readers ---------------------------------------------------------------

// readUvarint decodes the uvarint at buf[off:], returning the value and
// the offset past it. A zero next offset means malformed input
// (truncated buffer or overlong varint); the readers stop there. The
// one- and two-byte cases are inlined — delta-encoded vertex ids are
// almost always a single byte, and the generic binary.Uvarint loop
// dominated decode profiles.
func readUvarint(buf []byte, off int) (uint64, int) {
	if off+1 < len(buf) {
		b0 := buf[off]
		if b0 < 0x80 {
			return uint64(b0), off + 1
		}
		if b1 := buf[off+1]; b1 < 0x80 {
			return uint64(b0&0x7F) | uint64(b1)<<7, off + 2
		}
	} else if off < len(buf) && buf[off] < 0x80 {
		return uint64(buf[off]), off + 1
	}
	v, n := binary.Uvarint(buf[off:])
	if n <= 0 {
		return 0, 0
	}
	return v, off + n
}

// errMalformedPayload is what the readers report for buffers our
// encoders cannot have produced: a truncated or trailing-junk frame, a
// dishonest record count, an overlong varint. The engine turns it into a
// query failure — a damaged frame must surface as an error, never as
// silently fewer (or garbage) relaxations.
var errMalformedPayload = errors.New("malformed wire records")

// relaxReader iterates the relax records of one encoded batch. On a
// malformed buffer (truncated or overlong varints — possible only with
// corrupted input, never from our encoders) it stops early rather than
// panicking and records the damage; callers check err() after draining
// the reader.
type relaxReader struct {
	buf  []byte
	off  int // byte offset of the next record
	n    int // records remaining
	prev graph.Vertex
	bad  bool // malformed input seen
}

// newRelaxReader positions a reader at the first record of buf.
func newRelaxReader(buf []byte) relaxReader {
	if len(buf) == 0 {
		return relaxReader{} // nothing from this rank: the common, honest case
	}
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || n > uint64(len(buf)-sz) {
		// A valid record needs >= 1 byte per field, so a count beyond the
		// remaining bytes cannot be honest.
		return relaxReader{bad: true}
	}
	if n == 0 && sz != len(buf) {
		return relaxReader{bad: true} // junk after an empty batch
	}
	return relaxReader{buf: buf, off: sz, n: int(n)}
}

// err reports whether the reader met input our encoders cannot produce.
// Meaningful once next has returned ok=false.
func (rd *relaxReader) err() error {
	if rd.bad {
		return errMalformedPayload
	}
	return nil
}

// next returns the next record, or ok=false when exhausted.
func (rd *relaxReader) next() (v, parent graph.Vertex, d graph.Dist, ok bool) {
	if rd.n <= 0 {
		return 0, 0, 0, false
	}
	rd.n--
	dv, o1 := readUvarint(rd.buf, rd.off)
	if o1 == 0 {
		rd.n, rd.bad = 0, true
		return 0, 0, 0, false
	}
	p, o2 := readUvarint(rd.buf, o1)
	if o2 == 0 {
		rd.n, rd.bad = 0, true
		return 0, 0, 0, false
	}
	du, o3 := readUvarint(rd.buf, o2)
	if o3 == 0 {
		rd.n, rd.bad = 0, true
		return 0, 0, 0, false
	}
	rd.off = o3
	if rd.n == 0 && rd.off != len(rd.buf) {
		rd.bad = true // trailing junk after the counted records
	}
	rd.prev += graph.Vertex(dv)
	return rd.prev, graph.Vertex(p), graph.Dist(du), true
}

// requestReader iterates the request records of one encoded batch, with
// the same malformed-input tolerance (and err reporting) as relaxReader.
type requestReader struct {
	buf []byte
	off int
	n   int
	bad bool
}

// newRequestReader positions a reader at the first record of buf.
func newRequestReader(buf []byte) requestReader {
	if len(buf) == 0 {
		return requestReader{}
	}
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || n > uint64(len(buf)-sz) {
		return requestReader{bad: true}
	}
	if n == 0 && sz != len(buf) {
		return requestReader{bad: true}
	}
	return requestReader{buf: buf, off: sz, n: int(n)}
}

// err reports whether the reader met input our encoders cannot produce.
// Meaningful once next has returned ok=false.
func (rd *requestReader) err() error {
	if rd.bad {
		return errMalformedPayload
	}
	return nil
}

// next returns the next record, or ok=false when exhausted.
func (rd *requestReader) next() (u, v graph.Vertex, w graph.Weight, ok bool) {
	if rd.n <= 0 {
		return 0, 0, 0, false
	}
	rd.n--
	uu, o1 := readUvarint(rd.buf, rd.off)
	if o1 == 0 {
		rd.n, rd.bad = 0, true
		return 0, 0, 0, false
	}
	vv, o2 := readUvarint(rd.buf, o1)
	if o2 == 0 {
		rd.n, rd.bad = 0, true
		return 0, 0, 0, false
	}
	ww, o3 := readUvarint(rd.buf, o2)
	if o3 == 0 {
		rd.n, rd.bad = 0, true
		return 0, 0, 0, false
	}
	rd.off = o3
	if rd.n == 0 && rd.off != len(rd.buf) {
		rd.bad = true
	}
	return graph.Vertex(uu), graph.Vertex(vv), graph.Weight(ww), true
}
