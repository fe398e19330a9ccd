// Package sink persists event streams as segment files and replays them.
//
// A segment file is the stream API's 40-byte records made durable with zero
// serialization: the Writer appends raw analysis.Event structs (native
// endianness, the in-memory layout) behind a 64-byte header and the
// stream's encoded EventTable, one positioned write per batch, and the
// Reader hands the committed region back as a []analysis.Event without
// decoding — offline analyses consume the exact surface (EventTable +
// EventSink batches) live ones do.
//
// File layout:
//
//	[0,8)    magic "WSBEVLG1"
//	[8,12)   u32 LE format version (1)
//	[12,16)  u32 LE record size (40; a layout change must bump the version)
//	[16,24)  u64 LE watermark: committed record count (the commit point)
//	[24,28)  u32 LE flags (bit 0: records are big-endian)
//	[28,32)  u32 LE event-table length in bytes
//	[32,64)  reserved, zero
//	[64,..)  event table (le encoding of every EventSpec, see encodeTable)
//	[dataOff,..) records, 40 bytes each; dataOff = 64+tableLen rounded up
//	         to the next 64-byte boundary. Byte 3 of a record is reserved
//	         and written as zero; files written before it was reserved
//	         hold per-slot type tags there, which nothing reads.
//
// Crash safety is the watermark rule: records are written first, the
// watermark after, so a crash mid-batch leaves a torn tail BEYOND the
// watermark, which replay silently drops — the committed prefix is always
// whole. A watermark pointing past the records actually in the file means
// committed data is missing (a truncated copy, or writeback reordering
// across a hard crash) and fails replay with a *CorruptError instead of
// returning a silently short stream. So does a committed record replay could
// not decode through the recorded table (see checkRecords).
package sink

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"unsafe"

	"wasabi/internal/analysis"
	"wasabi/internal/wasm"
)

// eventSize is the on-disk record size. The zero-length-array index pins it
// to the in-memory struct size at compile time: a layout change breaks
// every existing segment file, so it must fail the build, not skew files.
const eventSize = 40

var _ = [1]struct{}{}[unsafe.Sizeof(analysis.Event{})-eventSize]

const (
	headerSize    = 64
	formatVersion = 1
	flagBigEndian = 1 << 0
)

var magic = [8]byte{'W', 'S', 'B', 'E', 'V', 'L', 'G', '1'}

// hostBigEndian reports the byte order records are laid out in on this host.
var hostBigEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 0
}()

// ErrCorrupt reports a segment file replay cannot trust: bad magic or
// version, a truncated or undecodable event table, a foreign byte order, a
// watermark promising more records than the file holds, or a committed
// record that does not match the table. Matched with errors.Is; errors.As
// with *CorruptError recovers where and why.
var ErrCorrupt = errors.New("wasabi: corrupt event-log segment")

// ErrSinkClosed reports Writer.Events after Close: the records have nowhere
// to go, and silently dropping them would defeat the sink's point.
var ErrSinkClosed = errors.New("wasabi: record sink is closed")

// CorruptError is the typed form of ErrCorrupt: which file, at what byte
// offset the check failed, and why.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("%v: %s: at byte %d: %s", ErrCorrupt, e.Path, e.Offset, e.Reason)
}

func (e *CorruptError) Unwrap() error { return ErrCorrupt }

func corrupt(path string, off int64, reason string) error {
	return &CorruptError{Path: path, Offset: off, Reason: reason}
}

// eventBytes aliases a batch's records as raw bytes for copying; the result
// borrows the batch and is consumed before any call returns it onward.
func eventBytes(batch []analysis.Event) []byte {
	if len(batch) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&batch[0])), len(batch)*eventSize)
}

// bytesEvents is the inverse view for replay; base must be 8-byte aligned.
func bytesEvents(b []byte) []analysis.Event {
	if len(b) < eventSize {
		return nil
	}
	return unsafe.Slice((*analysis.Event)(unsafe.Pointer(&b[0])), len(b)/eventSize)
}

// encodeTable serializes an EventTable deterministically (little-endian,
// length-prefixed strings; an opcode is recorded as its name, "" for none)
// so identical instrumentations produce identical file headers. A spec the
// format cannot hold — more than 255 types (a call_pre of a function with
// 255 or more parameters) or a string over 65,535 bytes — is an error, not a
// segment that Open would reject.
func encodeTable(tbl *analysis.EventTable) ([]byte, error) {
	var out []byte
	out = binary.LittleEndian.AppendUint32(out, uint32(len(tbl.Specs)))
	for i := range tbl.Specs {
		s := &tbl.Specs[i]
		if len(s.Types) > math.MaxUint8 {
			return nil, fmt.Errorf("wasabi: hook %d (%s) has %d types; a segment records at most %d", i, s.Name, len(s.Types), math.MaxUint8)
		}
		var flags byte
		if s.Indirect {
			flags |= 1
		}
		if s.Post {
			flags |= 2
		}
		out = append(out, byte(s.Kind), flags, byte(len(s.Types)))
		for _, t := range s.Types {
			out = append(out, byte(t))
		}
		for _, str := range []string{s.Name, s.OpName(), string(s.Block)} {
			if len(str) > math.MaxUint16 {
				return nil, fmt.Errorf("wasabi: hook %d has a %d-byte string; a segment records at most %d", i, len(str), math.MaxUint16)
			}
			out = binary.LittleEndian.AppendUint16(out, uint16(len(str)))
			out = append(out, str...)
		}
	}
	return out, nil
}

// minSpecSize is the encoding of a spec with no types and empty strings:
// kind, flags, type count and three string lengths.
const minSpecSize = 3 + 3*2

// opcodes maps each opcode's name back to it: a table records op names,
// and EventSpec.Op is the opcode.
var opcodes = func() map[string]wasm.Opcode {
	m := make(map[string]wasm.Opcode)
	for op := range 256 {
		if o := wasm.Opcode(op); o.Known() {
			m[o.String()] = o
		}
	}
	return m
}()

// decodeTable is the inverse of encodeTable; any bounds violation, unknown
// hook kind, type list too short for its kind's records or op name that is
// not an opcode reports the blob as corrupt (via the returned error's text —
// Open wraps it).
func decodeTable(b []byte) (*analysis.EventTable, error) {
	if len(b) < 4 {
		return nil, errors.New("event table shorter than its count field")
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint64(n)*minSpecSize > uint64(len(b)) {
		return nil, fmt.Errorf("%d specs cannot fit in %d bytes", n, len(b))
	}
	specs := make([]analysis.EventSpec, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(b) < 3 {
			return nil, fmt.Errorf("spec %d: truncated fixed fields", i)
		}
		kind, flags, nt := analysis.HookKind(b[0]), b[1], int(b[2])
		b = b[3:]
		if int(kind) >= analysis.NumKinds {
			return nil, fmt.Errorf("spec %d: unknown hook kind %d", i, kind)
		}
		spec := analysis.EventSpec{Kind: kind, Indirect: flags&1 != 0, Post: flags&2 != 0}
		if need := spec.TypesRead(); nt < need {
			return nil, fmt.Errorf("spec %d: %s spec has %d types, its records need %d", i, kind, nt, need)
		}
		if len(b) < nt {
			return nil, fmt.Errorf("spec %d: truncated type list", i)
		}
		if nt > 0 {
			spec.Types = make([]wasm.ValType, nt)
			for j := 0; j < nt; j++ {
				spec.Types[j] = wasm.ValType(b[j])
			}
		}
		b = b[nt:]
		var strs [3]string
		for j := range strs {
			if len(b) < 2 {
				return nil, fmt.Errorf("spec %d: truncated string length", i)
			}
			l := int(binary.LittleEndian.Uint16(b))
			b = b[2:]
			if len(b) < l {
				return nil, fmt.Errorf("spec %d: truncated string", i)
			}
			strs[j] = string(b[:l])
			b = b[l:]
		}
		spec.Name, spec.Block = strs[0], analysis.BlockKind(strs[2])
		if op, ok := opcodes[strs[1]]; ok {
			spec.Op = op
		} else if strs[1] != "" {
			return nil, fmt.Errorf("spec %d: op %q is not an opcode", i, strs[1])
		}
		specs = append(specs, spec)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after %d specs", len(b), n)
	}
	return &analysis.EventTable{Specs: specs}, nil
}

// dataOffset returns the 64-byte-aligned start of the record region for a
// given table length (alignment keeps the zero-copy []Event cast of an
// mmapped region 8-byte aligned, and record seeks cache-line friendly).
func dataOffset(tableLen int) int64 {
	return int64(headerSize+tableLen+63) &^ 63
}

// Writer appends event batches to a segment file. It implements
// analysis.EventSink, so it plugs directly into Stream.Serve or a fabric
// Subscription.Serve; like other sinks it copies out of the borrowed batch
// (into the file, with one WriteAt of its records and one of the
// watermark) and retains nothing. Write errors latch into Err — a sink
// cannot fail the stream it serves, so the stream keeps flowing and the
// recording is declared failed at Close/Err instead.
type Writer struct {
	f       *os.File
	dataOff int64
	count   uint64
	err     error
	closed  bool
}

// Create creates (truncating) a segment file recording streams decoded by
// tbl — pass the Stream or Fabric's Table.
func Create(path string, tbl *analysis.EventTable) (*Writer, error) {
	blob, err := encodeTable(tbl)
	if err != nil {
		return nil, err
	}
	if len(blob) > 1<<31-1 {
		return nil, fmt.Errorf("wasabi: event table too large to record (%d bytes)", len(blob))
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, dataOff: dataOffset(len(blob))}
	hdr := make([]byte, headerSize)
	copy(hdr, magic[:])
	binary.LittleEndian.PutUint32(hdr[8:], formatVersion)
	binary.LittleEndian.PutUint32(hdr[12:], eventSize)
	// watermark [16,24) starts 0
	if hostBigEndian {
		binary.LittleEndian.PutUint32(hdr[24:], flagBigEndian)
	}
	binary.LittleEndian.PutUint32(hdr[28:], uint32(len(blob)))
	if _, err := f.WriteAt(hdr, 0); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.WriteAt(blob, headerSize); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// Events appends one batch. The batch is borrowed (copied into the file,
// never retained). Errors latch: after the first failure the writer drops
// further batches and reports the failure from Err and Close.
func (w *Writer) Events(batch []analysis.Event) {
	if w.err != nil {
		return
	}
	if w.closed {
		w.err = ErrSinkClosed
		return
	}
	if len(batch) == 0 {
		return
	}
	off := w.dataOff + int64(w.count)*eventSize
	if _, err := w.f.WriteAt(eventBytes(batch), off); err != nil {
		w.err = err
		return
	}
	// Commit AFTER the records: the watermark only ever covers whole,
	// durable-ordered-before-it records (see the package comment).
	w.count += uint64(len(batch))
	w.putWatermark()
}

func (w *Writer) putWatermark() {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], w.count)
	if _, err := w.f.WriteAt(buf[:], 16); err != nil {
		w.err = err
	}
}

// Count returns the number of committed records.
func (w *Writer) Count() uint64 { return w.count }

// Err returns the first write failure, or nil. A failed writer keeps
// accepting (and dropping) batches so the stream it serves is unaffected.
func (w *Writer) Err() error { return w.err }

// Close commits the final watermark, syncs, and truncates the file to its
// exact committed size. Idempotent; returns the first error of the
// recording (write failures latched by Events included).
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if err := w.f.Truncate(w.dataOff + int64(w.count)*eventSize); err != nil && w.err == nil {
		w.err = err
	}
	if err := w.f.Sync(); err != nil && w.err == nil {
		w.err = err
	}
	if err := w.f.Close(); err != nil && w.err == nil {
		w.err = err
	}
	return w.err
}

// DefaultReplayBatch is Reader.Serve's batch size when none is given —
// the stream API's default, so replayed batch shapes match live ones.
const DefaultReplayBatch = 4096

// Reader replays a segment file through the stream API's decode surface:
// Table is the recorded EventTable, Records the committed region as live
// []analysis.Event batches are — zero-copy off the mmapped file where the
// platform allows.
type Reader struct {
	path   string
	data   []byte
	mapped bool
	tbl    *analysis.EventTable
	recs   []analysis.Event
}

// Open validates path's header, table and committed records and prepares
// them for replay. Damage is reported as a *CorruptError (errors.Is
// ErrCorrupt); a torn tail past the watermark is crash debris, silently
// dropped.
func Open(path string) (*Reader, error) {
	r := &Reader{path: path}
	if err := r.open(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// open is Open on r, which the caller closes on failure.
func (r *Reader) open() error {
	if err := r.load(); err != nil {
		return err
	}
	path := r.path
	hdr := r.data
	if len(hdr) < headerSize {
		return corrupt(path, 0, fmt.Sprintf("file is %d bytes, shorter than the %d-byte header", len(hdr), headerSize))
	}
	if [8]byte(hdr[:8]) != magic {
		return corrupt(path, 0, "bad magic (not an event-log segment)")
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != formatVersion {
		return corrupt(path, 8, fmt.Sprintf("format version %d, this build reads %d", v, formatVersion))
	}
	if rs := binary.LittleEndian.Uint32(hdr[12:]); rs != eventSize {
		return corrupt(path, 12, fmt.Sprintf("record size %d, want %d", rs, eventSize))
	}
	flags := binary.LittleEndian.Uint32(hdr[24:])
	if big := flags&flagBigEndian != 0; big != hostBigEndian {
		return corrupt(path, 24, "records were written on a host with different endianness")
	}
	tableLen := int64(binary.LittleEndian.Uint32(hdr[28:]))
	if headerSize+tableLen > int64(len(r.data)) {
		return corrupt(path, 28, "event table extends past the end of the file")
	}
	tbl, err := decodeTable(r.data[headerSize : headerSize+tableLen])
	if err != nil {
		return corrupt(path, headerSize, "event table: "+err.Error())
	}
	r.tbl = tbl
	watermark := binary.LittleEndian.Uint64(hdr[16:])
	dataOff := dataOffset(int(tableLen))
	var whole uint64
	if int64(len(r.data)) > dataOff {
		whole = uint64(int64(len(r.data))-dataOff) / eventSize
	}
	if watermark > whole {
		return corrupt(path, 16, fmt.Sprintf("watermark commits %d records but the file holds %d — committed data is missing", watermark, whole))
	}
	if watermark > 0 {
		region := r.data[dataOff : dataOff+int64(watermark)*eventSize]
		if uintptr(unsafe.Pointer(&region[0]))%unsafe.Alignof(analysis.Event{}) == 0 {
			r.recs = bytesEvents(region)
		} else {
			// A heap-read file whose base misses Event alignment (possible
			// in principle for the portable path): fall back to one copy.
			r.recs = make([]analysis.Event, watermark)
			copy(eventBytes(r.recs), region)
		}
	}
	if i, reason := checkRecords(tbl, r.recs); reason != "" {
		return corrupt(path, dataOff+int64(i)*eventSize, reason)
	}
	return nil
}

// checkRecords walks the records the way replay decodes them and returns
// the index of the first one a consumer could not decode through tbl, and
// why: a hook index past the table, a kind other than its spec's, a
// synthesized record that is not an end, a continuation without a primary,
// or a call/return group with fewer continuations than
// EventTable.AppendValues reads.
func checkRecords(tbl *analysis.EventTable, recs []analysis.Event) (int, string) {
	for i := 0; i < len(recs); i++ {
		e := &recs[i]
		switch {
		case e.Hook == analysis.EventCont:
			return i, "continuation record without a primary"
		case e.Hook == analysis.EventSynth:
			if e.Kind != analysis.KindEnd {
				return i, fmt.Sprintf("synthesized %s record; only end records are synthesized", e.Kind)
			}
			continue
		case int(e.Hook) >= len(tbl.Specs):
			return i, fmt.Sprintf("hook %d is past the %d-spec table", e.Hook, len(tbl.Specs))
		}
		spec := &tbl.Specs[e.Hook]
		if e.Kind != spec.Kind {
			return i, fmt.Sprintf("%s record of hook %d, a %s spec", e.Kind, e.Hook, spec.Kind)
		}
		conts := spec.Conts()
		for j := 1; j <= conts; j++ {
			if i+j == len(recs) || recs[i+j].Hook != analysis.EventCont {
				return i, fmt.Sprintf("%s group has %d of its %d continuation records", spec.Kind, j-1, conts)
			}
		}
		i += conts
	}
	return 0, ""
}

// load maps (or reads) the whole file.
func (r *Reader) load() error {
	if haveMmap {
		f, err := os.Open(r.path)
		if err != nil {
			return err
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			return err
		}
		if st.Size() > 0 {
			if m, err := mapRO(f, int(st.Size())); err == nil {
				r.data, r.mapped = m, true
				return nil
			}
		}
		// Zero-length or unmappable: fall through to ReadFile.
	}
	data, err := os.ReadFile(r.path)
	if err != nil {
		return err
	}
	r.data = data
	return nil
}

// Table returns the recorded decode table.
func (r *Reader) Table() *analysis.EventTable { return r.tbl }

// Records returns every committed record, in order. Borrowed from the
// reader: valid until Close (it may alias the mapped file).
func (r *Reader) Records() []analysis.Event { return r.recs }

// Count returns the number of committed records.
func (r *Reader) Count() uint64 { return uint64(len(r.recs)) }

// Serve replays the committed records into sink in batches of about
// batchSize (<= 0 means DefaultReplayBatch), never splitting a primary
// record from its continuation records — the batch-boundary guarantee live
// streams give. Batches are borrowed, exactly like live ones.
func (r *Reader) Serve(sink analysis.EventSink, batchSize int) {
	if batchSize <= 0 {
		batchSize = DefaultReplayBatch
	}
	recs := r.recs
	for i := 0; i < len(recs); {
		end := i + batchSize
		if end > len(recs) {
			end = len(recs)
		}
		for end < len(recs) && recs[end].Hook == analysis.EventCont {
			end++
		}
		sink.Events(recs[i:end])
		i = end
	}
}

// Close releases the mapping. The reader (and any Records slice) is
// unusable afterwards.
func (r *Reader) Close() error {
	r.recs = nil
	data := r.data
	r.data = nil
	if r.mapped && data != nil {
		r.mapped = false
		return unmap(data)
	}
	return nil
}
