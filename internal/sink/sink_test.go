package sink

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wasabi/internal/analyses"
	"wasabi/internal/analysis"
	"wasabi/internal/builder"
	"wasabi/internal/core"
	"wasabi/internal/wasm"
)

// fixtureTable is a small but shape-complete decode table: a bare hook, an
// indirect call_pre with enough arguments to force continuation records,
// and a call_post — covering every EventSpec field the encoding carries.
func fixtureTable() *analysis.EventTable {
	return &analysis.EventTable{Specs: []analysis.EventSpec{
		{Kind: analysis.KindNop, Name: "nop"},
		{
			Kind: analysis.KindCall, Name: "call_pre_4", Op: wasm.OpCallIndirect,
			Types:    []wasm.ValType{wasm.I32, wasm.I32, wasm.I64, wasm.F32, wasm.F64},
			Indirect: true,
		},
		{
			Kind: analysis.KindCall, Name: "call_post_1", Op: wasm.OpCall,
			Types: []wasm.ValType{wasm.F64}, Post: true,
		},
		{Kind: analysis.KindEnd, Name: "end_loop", Block: analysis.BlockLoop},
	}}
}

// fixtureBatches is a fixed record sequence: a plain record, a 4-argument
// indirect call (primary + continuation), a post record, and an end record,
// split across two batches the way a live stream could deliver them.
func fixtureBatches() [][]analysis.Event {
	return [][]analysis.Event{
		{
			{Hook: 0, Kind: analysis.KindNop, Func: 2, Instr: 7},
			{
				Hook: 1, Kind: analysis.KindCall,
				Func: 2, Instr: 8, Aux: 5, Vals: [3]uint64{3, 0x1234, 0xFFFF_FFFF_0000_0001},
			},
			{
				Hook: analysis.EventCont, Kind: analysis.KindCall,
				Func: 2, Instr: 8, Vals: [3]uint64{0x3F80_0000, 0x3FF0_0000_0000_0000},
			},
		},
		{
			{
				Hook: 2, Kind: analysis.KindCall,
				Func: 2, Instr: 8, Vals: [3]uint64{0x4000_0000_0000_0000},
			},
			{Hook: 3, Kind: analysis.KindEnd, Func: 2, Instr: 11, Aux: 9, Vals: [3]uint64{uint64(analysis.BlockLoop.Code())}},
		},
	}
}

// writeFixture records the fixture stream at path.
func writeFixture(t *testing.T, path string) {
	t.Helper()
	w, err := Create(path, fixtureTable())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for _, b := range fixtureBatches() {
		w.Events(b)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "roundtrip.evlog")
	writeFixture(t, path)
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	if !reflect.DeepEqual(r.Table(), fixtureTable()) {
		t.Errorf("decoded table differs:\n got %+v\nwant %+v", r.Table(), fixtureTable())
	}
	var want []analysis.Event
	for _, b := range fixtureBatches() {
		want = append(want, b...)
	}
	if got := r.Records(); !reflect.DeepEqual(got, want) {
		t.Errorf("replayed records differ:\n got %+v\nwant %+v", got, want)
	}
}

// TestGoldenFixture pins the on-disk format byte for byte: the 40-byte
// record layout, the header, and the table encoding. A diff here means old
// segment files stopped replaying — bump the format version and regenerate
// with SINK_GOLDEN_REGEN=1 only for a deliberate format change.
func TestGoldenFixture(t *testing.T) {
	if hostBigEndian {
		t.Skip("fixture records are little-endian (written on a little-endian host)")
	}
	golden := filepath.Join("testdata", "golden.evlog")
	if os.Getenv("SINK_GOLDEN_REGEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		writeFixture(t, golden)
		t.Logf("regenerated %s", golden)
	}
	fresh := filepath.Join(t.TempDir(), "fresh.evlog")
	writeFixture(t, fresh)
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden fixture (regenerate with SINK_GOLDEN_REGEN=1): %v", err)
	}
	gotBytes, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("segment bytes diverged from the golden fixture: got %d bytes, want %d — the file format changed", len(gotBytes), len(wantBytes))
	}
	// And the checked-in fixture must still replay.
	r, err := Open(golden)
	if err != nil {
		t.Fatalf("Open golden: %v", err)
	}
	defer r.Close()
	if r.Count() != 5 {
		t.Errorf("golden fixture replays %d records, want 5", r.Count())
	}
}

// TestPackedFixtureReplays pins that segments written while byte 3 of a
// record still held its slot types (a byte now reserved and written as
// zero) open and replay unchanged: golden-pack.evlog is the golden fixture
// as it was written then, different from golden.evlog only in that byte of
// the three records that set it.
func TestPackedFixtureReplays(t *testing.T) {
	var want []analysis.Event
	for _, b := range fixtureBatches() {
		want = append(want, b...)
	}
	var traces [2][]string
	for i, name := range []string{"golden-pack.evlog", "golden.evlog"} {
		r, err := Open(filepath.Join("testdata", name))
		if err != nil {
			t.Fatalf("Open %s: %v", name, err)
		}
		defer r.Close()
		if !reflect.DeepEqual(r.Table(), fixtureTable()) {
			t.Errorf("%s: decoded table differs:\n got %+v\nwant %+v", name, r.Table(), fixtureTable())
		}
		got := r.Records()
		if len(got) != len(want) {
			t.Fatalf("%s replays %d records, want %d", name, len(got), len(want))
		}
		for j, e := range got {
			if e != want[j] { // == skips the reserved byte, which only old files set
				t.Errorf("%s: record %d = %+v, want %+v", name, j, e, want[j])
			}
		}
		tr := analyses.NewTracer()
		r.Serve(analysis.NewDecoder(r.Table(), everyHook{tr}), 0)
		traces[i] = tr.Events
	}
	if !reflect.DeepEqual(traces[0], traces[1]) || len(traces[0]) != 4 {
		t.Errorf("replays differ or miss events:\n  packed: %q\n  golden: %q", traces[0], traces[1])
	}
}

// TestCrashTruncationRecovery covers the watermark rule from both sides:
// a torn tail past the watermark (crash mid-batch) is silently dropped,
// while a file shorter than its watermark promises is corrupt.
func TestCrashTruncationRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.evlog")
	writeFixture(t, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Crash shape: a torn half-record plus a whole-but-uncommitted record
	// beyond the committed region. Replay must see exactly the watermark.
	torn := append(append([]byte{}, data...), make([]byte, eventSize+eventSize/2)...)
	tornPath := filepath.Join(t.TempDir(), "torn.evlog")
	if err := os.WriteFile(tornPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(tornPath)
	if err != nil {
		t.Fatalf("Open with torn tail: %v", err)
	}
	if r.Count() != 5 {
		t.Errorf("torn-tail replay has %d records, want the 5 committed ones", r.Count())
	}
	r.Close()

	// Missing committed data: cut one committed record off the end.
	short := data[:len(data)-eventSize]
	shortPath := filepath.Join(t.TempDir(), "short.evlog")
	if err := os.WriteFile(shortPath, short, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(shortPath)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with missing committed records = %v, want ErrCorrupt", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("error is not a *CorruptError: %v", err)
	}
}

func TestCorruptHeaders(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.evlog")
	writeFixture(t, path)
	base, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty file", func(b []byte) []byte { return nil }},
		{"short header", func(b []byte) []byte { return b[:headerSize/2] }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"future version", func(b []byte) []byte { b[8] = 99; return b }},
		{"wrong record size", func(b []byte) []byte { b[12] = 39; return b }},
		{"foreign endianness", func(b []byte) []byte { b[24] ^= flagBigEndian; return b }},
		{"table past EOF", func(b []byte) []byte { b[28] = 0xFF; b[29] = 0xFF; b[30] = 0xFF; return b }},
		{"truncated table", func(b []byte) []byte { b[28]++; return b }},
		{"spec count past table", func(b []byte) []byte { copy(b[headerSize:], []byte{0xFF, 0xFF, 0xFF, 0xFF}); return b }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(append([]byte{}, base...))
			p := filepath.Join(t.TempDir(), "bad.evlog")
			if err := os.WriteFile(p, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(p)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open = %v, want ErrCorrupt", err)
			}
		})
	}
}

// countingSink records delivered batch boundaries for the batching test.
type countingSink struct {
	batches [][]analysis.Event
	total   int
}

func (c *countingSink) Events(batch []analysis.Event) {
	cp := append([]analysis.Event{}, batch...)
	c.batches = append(c.batches, cp)
	c.total += len(batch)
}

// TestServeKeepsContinuationGroupsWhole replays with a batch size that
// lands a boundary exactly on a continuation record and asserts Serve
// extends the batch instead of splitting the group.
func TestServeKeepsContinuationGroupsWhole(t *testing.T) {
	path := filepath.Join(t.TempDir(), "groups.evlog")
	writeFixture(t, path)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for batchSize := 1; batchSize <= 6; batchSize++ {
		var c countingSink
		r.Serve(&c, batchSize)
		if c.total != int(r.Count()) {
			t.Fatalf("batchSize %d: served %d records, want %d", batchSize, c.total, r.Count())
		}
		for i, b := range c.batches {
			if len(b) > 0 && b[0].Hook == analysis.EventCont {
				t.Errorf("batchSize %d: batch %d starts with a continuation record — group split", batchSize, i)
			}
		}
	}
}

func TestWriterMisuse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "misuse.evlog")
	w, err := Create(path, fixtureTable())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w.Events(fixtureBatches()[0])
	if !errors.Is(w.Err(), ErrSinkClosed) {
		t.Fatalf("Err after write-after-close = %v, want ErrSinkClosed", w.Err())
	}
}

// nopBatch returns n nop records numbered from first, so every record of a
// recording is distinct and a misplaced batch shows.
func nopBatch(first, n int) []analysis.Event {
	batch := make([]analysis.Event, n)
	for i := range batch {
		batch[i] = analysis.Event{Hook: 0, Kind: analysis.KindNop, Func: int32(first + i)}
	}
	return batch
}

// TestWriterAppendsManyBatches appends a fixed volume across several
// batches and checks every record arrives and the last one is intact.
func TestWriterAppendsManyBatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "many.evlog")
	w, err := Create(path, fixtureTable())
	if err != nil {
		t.Fatal(err)
	}
	const batches, size = 9, 1024
	for i := 0; i < batches; i++ {
		w.Events(nopBatch(i*size, size))
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	if want := uint64(batches * size); r.Count() != want {
		t.Fatalf("replayed %d records, want %d", r.Count(), want)
	}
	recs := r.Records()
	if last := recs[len(recs)-1]; last.Func != batches*size-1 {
		t.Errorf("last record corrupted: %+v", last)
	}
}

// TestWriterCommitsEachBatch is the crash rule for a process that dies
// between batches: the file of a writer that is never closed replays
// exactly the records committed so far, after every batch.
func TestWriterCommitsEachBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.evlog")
	w, err := Create(path, fixtureTable())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var want []analysis.Event
	for i, n := range []int{1, 7, 4096, 3, 300} {
		batch := nopBatch(len(want), n)
		w.Events(batch)
		want = append(want, batch...)
		if err := w.Err(); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		r, err := Open(path)
		if err != nil {
			t.Fatalf("batch %d: Open of the live file: %v", i, err)
		}
		if got := r.Records(); !reflect.DeepEqual(got, want) {
			t.Errorf("batch %d: live file replays %d records, want the %d committed", i, len(got), len(want))
		}
		r.Close()
	}
}

// TestWriterLatchesWriteError closes the writer's file under it: the next
// batch must fail at once, not be accepted and lost at Close, and the
// failure must latch — Count stays at the last committed batch and Close
// reports the same error.
func TestWriterLatchesWriteError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "failing.evlog")
	w, err := Create(path, fixtureTable())
	if err != nil {
		t.Fatal(err)
	}
	w.Events(nopBatch(0, 10))
	if err := w.f.Close(); err != nil {
		t.Fatal(err)
	}
	w.Events(nopBatch(10, 10))
	latched := w.Err()
	if !errors.Is(latched, os.ErrClosed) {
		t.Fatalf("Err after writing to a closed file = %v, want os.ErrClosed", latched)
	}
	w.Events(nopBatch(20, 10))
	if w.Count() != 10 {
		t.Errorf("Count = %d after a failed batch, want the 10 committed", w.Count())
	}
	if err := w.Close(); err != latched {
		t.Errorf("Close = %v, want the latched %v", err, latched)
	}
}

// TestWriterSyncMidRecording syncs between batches: the recording goes on
// after Sync, and the closed file replays every record the writer counted.
func TestWriterSyncMidRecording(t *testing.T) {
	path := filepath.Join(t.TempDir(), "synced.evlog")
	w, err := Create(path, fixtureTable())
	if err != nil {
		t.Fatal(err)
	}
	want := nopBatch(0, 10)
	w.Events(want)
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	more := nopBatch(10, 5)
	w.Events(more)
	want = append(want, more...)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	if r.Count() != w.Count() {
		t.Errorf("replayed Count = %d, writer's = %d", r.Count(), w.Count())
	}
	if got := r.Records(); !reflect.DeepEqual(got, want) {
		t.Errorf("replayed %d records, want the %d written", len(got), len(want))
	}
}

// TestWriterSyncErrors pins Sync's failures, which latch like those of
// Events: after Close it reports ErrSinkClosed, a latched write error comes
// back without a sync, and a failed sync latches into Err and Close.
func TestWriterSyncErrors(t *testing.T) {
	create := func(t *testing.T) *Writer {
		w, err := Create(filepath.Join(t.TempDir(), "sync.evlog"), fixtureTable())
		if err != nil {
			t.Fatal(err)
		}
		w.Events(nopBatch(0, 10))
		return w
	}
	t.Run("AfterClose", func(t *testing.T) {
		w := create(t)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); !errors.Is(err, ErrSinkClosed) {
			t.Fatalf("Sync after Close = %v, want ErrSinkClosed", err)
		}
	})
	t.Run("LatchedWriteError", func(t *testing.T) {
		w := create(t)
		if err := w.f.Close(); err != nil {
			t.Fatal(err)
		}
		w.Events(nopBatch(10, 10))
		latched := w.Err()
		if !errors.Is(latched, os.ErrClosed) {
			t.Fatalf("Err after writing to a closed file = %v, want os.ErrClosed", latched)
		}
		if err := w.Sync(); err != latched {
			t.Errorf("Sync = %v, want the latched %v", err, latched)
		}
		if err := w.Close(); err != latched {
			t.Errorf("Close = %v, want the latched %v", err, latched)
		}
	})
	t.Run("FailedSync", func(t *testing.T) {
		w := create(t)
		if err := w.f.Close(); err != nil {
			t.Fatal(err)
		}
		err := w.Sync()
		if !errors.Is(err, os.ErrClosed) {
			t.Fatalf("Sync of a closed file = %v, want os.ErrClosed", err)
		}
		if w.Err() != err {
			t.Errorf("Err = %v, want the failed sync's %v", w.Err(), err)
		}
		w.Events(nopBatch(10, 10))
		if w.Count() != 10 {
			t.Errorf("Count = %d after a failed sync, want the 10 committed", w.Count())
		}
		if cerr := w.Close(); cerr != err {
			t.Errorf("Close = %v, want the failed sync's %v", cerr, err)
		}
	})
}

// TestCreateRefusesUnrecordableTable pins that Create rejects a decode table
// the segment format cannot hold instead of writing a file Open then reports
// as corrupt: a module calling a 300-parameter function monomorphizes a
// call_pre hook with 301 types (the type count is one byte), and strings are
// length-prefixed with two bytes.
func TestCreateRefusesUnrecordableTable(t *testing.T) {
	b := builder.New()
	params := make([]wasm.ValType, 300)
	for i := range params {
		params[i] = wasm.I32
	}
	wide := b.Func("wide", params, nil)
	wide.Done()
	f := b.Func("f", nil, nil)
	for range params {
		f.I32(1)
	}
	f.Call(wide.Index)
	f.Done()
	_, md, err := core.Instrument(b.Build(), core.Options{Hooks: analysis.AllHooks})
	if err != nil {
		t.Fatal(err)
	}

	long := fixtureTable()
	long.Specs[0].Name = string(make([]byte, 1<<16))

	for name, tbl := range map[string]*analysis.EventTable{"300 params": &md.EventTable, "64 KiB name": long} {
		path := filepath.Join(t.TempDir(), "wide.evlog")
		w, err := Create(path, tbl)
		if err == nil {
			w.Close()
			_, oerr := Open(path)
			t.Fatalf("%s: Create accepted the table (Open then says %v)", name, oerr)
		}
		if _, serr := os.Stat(path); !os.IsNotExist(serr) {
			t.Errorf("%s: refused Create left a file behind (stat: %v)", name, serr)
		}
	}
}

// craftedSegment is a segment Create writes without complaint but whose
// table or records replay could not decode.
type craftedSegment struct {
	name string
	tbl  *analysis.EventTable
	recs []analysis.Event
}

// return4Table holds one return hook with four results: a primary record
// and one continuation record per event.
func return4Table() *analysis.EventTable {
	return &analysis.EventTable{Specs: []analysis.EventSpec{{
		Kind: analysis.KindReturn, Name: "return_i32_i32_i32_i32",
		Types: []wasm.ValType{wasm.I32, wasm.I32, wasm.I32, wasm.I32},
	}}}
}

// craftedSegments covers each rule Open checks beyond the header: the
// table's kinds and type lists, and each record's hook, kind and
// continuation group.
func craftedSegments() []craftedSegment {
	nopConst := &analysis.EventTable{Specs: []analysis.EventSpec{
		{Kind: analysis.KindNop, Name: "nop"},
		{Kind: analysis.KindConst, Name: "const_i32", Types: []wasm.ValType{wasm.I32}},
	}}
	ret4 := return4Table()
	nop := analysis.Event{Hook: 0, Kind: analysis.KindNop}
	return []craftedSegment{
		{"unknown kind", &analysis.EventTable{Specs: []analysis.EventSpec{{Kind: 200, Name: "x"}}}, nil},
		{"const spec without types", &analysis.EventTable{Specs: []analysis.EventSpec{{Kind: analysis.KindConst, Name: "const"}}}, nil},
		{"binary spec with two types", &analysis.EventTable{Specs: []analysis.EventSpec{
			{Kind: analysis.KindBinary, Name: "binary", Op: wasm.OpI32Add, Types: []wasm.ValType{wasm.I32, wasm.I32}},
		}}, nil},
		{"call_pre spec without types", &analysis.EventTable{Specs: []analysis.EventSpec{{Kind: analysis.KindCall, Name: "call_pre"}}}, nil},
		{"op name not an opcode", &analysis.EventTable{Specs: []analysis.EventSpec{
			{Kind: analysis.KindUnary, Name: "unary", Op: wasm.Opcode(0x06), Types: []wasm.ValType{wasm.I32, wasm.I32}},
		}}, nil},
		{"hook past table", nopConst, []analysis.Event{nop, {Hook: 7, Kind: analysis.KindNop}}},
		{"kind differs from spec", nopConst, []analysis.Event{{Hook: 0, Kind: analysis.KindConst}}},
		{"synthesized non-end", nopConst, []analysis.Event{{Hook: analysis.EventSynth, Kind: analysis.KindConst}}},
		{"continuation without primary", nopConst, []analysis.Event{{Hook: analysis.EventCont, Kind: analysis.KindCall}, nop}},
		{"continuation after a nop", nopConst, []analysis.Event{nop, {Hook: analysis.EventCont, Kind: analysis.KindNop}}},
		{"return group cut at the end", ret4, []analysis.Event{{Hook: 0, Kind: analysis.KindReturn}}},
		{"return group cut by a primary", ret4, []analysis.Event{
			{Hook: 0, Kind: analysis.KindReturn}, {Hook: 0, Kind: analysis.KindReturn},
		}},
		{"call_pre group cut", fixtureTable(), fixtureBatches()[0][:2]},
	}
}

// writeCrafted writes c with Create, which records any table and records.
func writeCrafted(tb testing.TB, dir string, c craftedSegment) string {
	tb.Helper()
	path := filepath.Join(dir, "crafted.evlog")
	w, err := Create(path, c.tbl)
	if err != nil {
		tb.Fatal(err)
	}
	w.Events(c.recs)
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return path
}

// TestOpenRejectsUndecodableSegments pins that Open fails every crafted
// segment with a *CorruptError instead of handing replay a table or records
// that the record decoder would index out of range on.
func TestOpenRejectsUndecodableSegments(t *testing.T) {
	for _, c := range craftedSegments() {
		t.Run(c.name, func(t *testing.T) {
			r, err := Open(writeCrafted(t, t.TempDir(), c))
			if err == nil {
				r.Close()
				t.Fatal("Open accepted the segment")
			}
			var ce *CorruptError
			if !errors.Is(err, ErrCorrupt) || !errors.As(err, &ce) {
				t.Fatalf("Open = %v, want a *CorruptError", err)
			}
		})
	}

	// The shapes those rules bound still open: a synthesized end record and
	// a whole return group.
	ok := craftedSegment{"decodable", return4Table(), []analysis.Event{
		{Hook: analysis.EventSynth, Kind: analysis.KindEnd},
		{Hook: 0, Kind: analysis.KindReturn},
		{Hook: analysis.EventCont, Kind: analysis.KindReturn},
	}}
	r, err := Open(writeCrafted(t, t.TempDir(), ok))
	if err != nil {
		t.Fatalf("Open of a decodable segment: %v", err)
	}
	r.Close()
}

// everyHook implements every callback: the Tracer's, plus the block probe.
type everyHook struct{ *analyses.Tracer }

func (everyHook) BlockCovered(analysis.Location, int) {}

// FuzzOpen feeds arbitrary bytes to Open: it either reports ErrCorrupt or
// returns a reader whose records replay, in default-sized and in
// one-record batches, through the record decoder into an analysis that
// implements every callback — so every record kind is decoded — without
// panicking.
func FuzzOpen(f *testing.F) {
	for _, name := range []string{"golden.evlog", "golden-pack.evlog"} {
		golden, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden)
	}
	for _, c := range craftedSegments() {
		data, err := os.ReadFile(writeCrafted(f, f.TempDir(), c))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.evlog")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open = %v, want ErrCorrupt", err)
			}
			return
		}
		defer r.Close()
		for _, batch := range []int{0, 1} {
			r.Serve(analysis.NewDecoder(r.Table(), everyHook{analyses.NewTracer()}), batch)
		}
	})
}
