package sink

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

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
			Kind: analysis.KindCall, Name: "call_pre_4", Op: "call_indirect",
			Types:    []wasm.ValType{wasm.I32, wasm.I32, wasm.I64, wasm.F32, wasm.F64},
			Indirect: true,
		},
		{
			Kind: analysis.KindCall, Name: "call_post_1", Op: "call",
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
				Hook: 1, Kind: analysis.KindCall, Pack: analysis.PackSlots(wasm.I64, wasm.I32, wasm.I64),
				Func: 2, Instr: 8, Aux: 5, Vals: [3]uint64{3, 0x1234, 0xFFFF_FFFF_0000_0001},
			},
			{
				Hook: analysis.EventCont, Kind: analysis.KindCall,
				Pack: analysis.PackSlots(wasm.F32, wasm.F64),
				Func: 2, Instr: 8, Vals: [3]uint64{0x3F80_0000, 0x3FF0_0000_0000_0000},
			},
		},
		{
			{
				Hook: 2, Kind: analysis.KindCall, Pack: analysis.PackSlots(wasm.F64),
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

// TestWriterGrowth crosses the initial mmap capacity to exercise the remap
// path (a no-op in portable mode, where the test still checks volume).
func TestWriterGrowth(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grow.evlog")
	w, err := Create(path, fixtureTable())
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]analysis.Event, 1024)
	for i := range batch {
		batch[i] = analysis.Event{Hook: 0, Kind: analysis.KindNop, Func: int32(i)}
	}
	// > initialDataCap worth of records.
	n := initialDataCap/(len(batch)*eventSize) + 3
	for i := 0; i < n; i++ {
		w.Events(batch)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	if want := uint64(n * len(batch)); r.Count() != want {
		t.Fatalf("replayed %d records, want %d", r.Count(), want)
	}
	recs := r.Records()
	if recs[len(recs)-1].Func != int32(len(batch)-1) {
		t.Errorf("last record corrupted across growth: %+v", recs[len(recs)-1])
	}
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

	for name, tbl := range map[string]*analysis.EventTable{"300 params": md.EventTable(), "64 KiB name": long} {
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
