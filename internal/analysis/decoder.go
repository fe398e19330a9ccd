package analysis

// The record decoder: the stream-side counterpart of the runtime's callback
// trampolines. NewDecoder compiles, once per (EventTable, analysis), one
// closure per hook-table entry that reads the entry's records and calls the
// callback Bind found for them with the arguments a trampoline passes. It is
// the one piece of code that turns a record into analysis arguments, so any
// callback analysis can consume a Stream, a Fanout subscription or a
// replayed segment, and stream/callback parity holds by construction.

// decodeFn decodes one record group: a primary record and its
// continuation records.
type decodeFn func(g []Event)

// decoder is the EventSink NewDecoder returns. A sink is driven by one
// goroutine, so its vector buffers need no pool: they are reused batch
// after batch, and what it hands to callbacks is borrowed exactly as on the
// callback path.
type decoder struct {
	tbl     *EventTable
	hooks   []decodeFn // indexed by Event.Hook
	end     decodeFn   // synthesized end records (EventSynth)
	vals    []Value
	targets []BranchTarget
}

// NewDecoder returns an EventSink that decodes each batch of tbl's records
// into calls on a's callbacks (the ones Bind finds), in record order:
// call/return vectors are reassembled from their continuation records,
// synthesized br_table end records reach End, and a BrTable callback
// receives the resolved targets tbl.BrTables holds. A table read from a
// segment file has no br_table records, so there BrTable receives a nil
// table and a zero default. When a implements ModuleInfoReceiver and tbl
// carries module information, a receives it now. Records no callback of a
// observes are skipped. A steady-state batch allocates nothing.
func NewDecoder(tbl *EventTable, a any) EventSink {
	cbs, _ := Bind(a)
	d := &decoder{tbl: tbl, hooks: make([]decodeFn, len(tbl.Specs))}
	for i := range tbl.Specs {
		d.hooks[i] = d.compile(&tbl.Specs[i], &cbs)
	}
	d.end = d.compile(&EventSpec{Kind: KindEnd}, &cbs)
	if r, ok := a.(ModuleInfoReceiver); ok && tbl.Info != nil {
		r.SetModuleInfo(tbl.Info)
	}
	return d
}

// Events decodes one borrowed batch. Groups never straddle batches.
func (d *decoder) Events(batch []Event) {
	for i := 0; i < len(batch); {
		next := d.tbl.Next(batch, i)
		switch h := batch[i].Hook; {
		case h < EventSynth && int(h) < len(d.hooks):
			d.hooks[h](batch[i:next])
		case h == EventSynth: // only end records are synthesized
			d.end(batch[i:next])
		}
		i = next
	}
}

// at is the location of instruction instr (a record word holding an int32)
// in e's function.
func (e *Event) at(instr uint64) Location {
	return Location{Func: int(e.Func), Instr: int(int32(uint32(instr)))}
}

// The record layout, written by the runtime's encoders and read back here
// and by sink.Open: which payload value a record carries in Aux, how many
// types its decoding reads, and how many continuation records a call or
// return group has (the table on Event).

// AuxValue returns which entry of Types the spec's records carry in Aux, or
// -1 for none. The other entries fill Vals in order.
func (s *EventSpec) AuxValue() int {
	switch s.Kind {
	case KindConst, KindDrop, KindUnary, KindBinary, KindReturn:
		return -1
	case KindCall:
		if s.Post {
			return -1
		}
	case KindBrIf:
		return 2 // the condition; label and target fill Vals
	case KindBrTable:
		return 1 // the runtime index; the metadata index fills Vals[0]
	}
	return 0
}

// typesRead is, per hook kind, how many Types the decoding of its records
// indexes.
var typesRead = [NumKinds]int{
	KindSelect: 3, KindDrop: 1, KindLoad: 3, KindStore: 3, KindConst: 1,
	KindUnary: 2, KindBinary: 3, KindGlobal: 2, KindLocal: 2,
}

// TypesRead returns how many entries of Types the decoding of the spec's
// records reads; a spec with fewer cannot be decoded. A call_pre spec needs
// Types[0], the target slot ValueTypes skips. Kind must be below NumKinds.
func (s *EventSpec) TypesRead() int {
	if s.Kind == KindCall && !s.Post {
		return 1
	}
	return typesRead[s.Kind]
}

// Conts returns how many continuation records follow each primary record of
// the spec. A call or return group fills one slot per entry of Types, three
// to a record: call_pre's table index takes the slot of the target, which
// Aux carries.
func (s *EventSpec) Conts() int {
	if s.Kind != KindCall && s.Kind != KindReturn {
		return 0
	}
	return (max(len(s.Types), 1) - 1) / len(Event{}.Vals)
}

// compile builds the closure that decodes the records of spec s. There is
// one case per callback signature, as in the runtime's compileTrampoline;
// kinds sharing a signature share the closure. The record layout is the
// table on Event.
func (d *decoder) compile(s *EventSpec, cbs *Callbacks) decodeFn {
	switch cb := cbs.Of(s.Kind.Callback(s.Post)).(type) {
	case func(Location): // nop, unreachable, start
		return func(g []Event) { cb(g[0].Loc()) }
	case func(Location, bool): // if
		return func(g []Event) { cb(g[0].Loc(), g[0].Aux != 0) }
	case func(Location, BranchTarget): // br
		return func(g []Event) {
			e := &g[0]
			cb(e.Loc(), BranchTarget{Label: e.Aux, Location: e.at(e.Vals[0])})
		}
	case func(Location, BranchTarget, bool): // br_if
		return func(g []Event) {
			e := &g[0]
			cb(e.Loc(), BranchTarget{Label: uint32(e.Vals[0]), Location: e.at(e.Vals[1])}, e.Aux != 0)
		}
	case func(Location, []BranchTarget, BranchTarget, uint32): // br_table
		return func(g []Event) {
			e := &g[0]
			var table []BranchTarget
			var deflt BranchTarget
			if m := uint32(e.Vals[0]); int(m) < len(d.tbl.BrTables) {
				d.targets, deflt = d.tbl.BrTables[m].Resolve(d.targets, int(e.Func))
				table = d.targets
			}
			cb(e.Loc(), table, deflt, e.Aux)
		}
	case func(Location, BlockKind): // begin
		block := s.Block
		return func(g []Event) { cb(g[0].Loc(), block) }
	case func(Location, BlockKind, Location): // end: self-describing, like synthesized ends
		return func(g []Event) {
			e := &g[0]
			cb(e.Loc(), BlockKindOf(uint32(e.Vals[0])), e.at(uint64(e.Aux)))
		}
	case func(Location, Value): // const, drop
		t := s.Types[0]
		return func(g []Event) { cb(g[0].Loc(), Value{Type: t, Bits: g[0].Vals[0]}) }
	case func(Location, bool, Value, Value): // select
		t1, t2 := s.Types[1], s.Types[2]
		return func(g []Event) {
			e := &g[0]
			cb(e.Loc(), e.Aux != 0, Value{Type: t1, Bits: e.Vals[0]}, Value{Type: t2, Bits: e.Vals[1]})
		}
	case func(Location, string, Value, Value): // unary
		op, t0, t1 := s.OpName(), s.Types[0], s.Types[1]
		return func(g []Event) {
			e := &g[0]
			cb(e.Loc(), op, Value{Type: t0, Bits: e.Vals[0]}, Value{Type: t1, Bits: e.Vals[1]})
		}
	case func(Location, string, Value, Value, Value): // binary
		op, t0, t1, t2 := s.OpName(), s.Types[0], s.Types[1], s.Types[2]
		return func(g []Event) {
			e := &g[0]
			cb(e.Loc(), op, Value{Type: t0, Bits: e.Vals[0]}, Value{Type: t1, Bits: e.Vals[1]}, Value{Type: t2, Bits: e.Vals[2]})
		}
	case func(Location, string, uint32, Value): // local, global
		op, t := s.OpName(), s.Types[1]
		return func(g []Event) { cb(g[0].Loc(), op, g[0].Aux, Value{Type: t, Bits: g[0].Vals[0]}) }
	case func(Location, string, MemArg, Value): // load, store
		op, t := s.OpName(), s.Types[2]
		return func(g []Event) {
			e := &g[0]
			cb(e.Loc(), op, MemArg{Addr: uint32(e.Vals[0]), Offset: e.Aux}, Value{Type: t, Bits: e.Vals[1]})
		}
	case func(Location, uint32): // memory_size
		return func(g []Event) { cb(g[0].Loc(), g[0].Aux) }
	case func(Location, uint32, uint32): // memory_grow
		return func(g []Event) { cb(g[0].Loc(), g[0].Aux, uint32(g[0].Vals[0])) }
	case func(Location, int): // block_probe
		return func(g []Event) { cb(g[0].Loc(), int(int32(g[0].Aux))) }
	case func(Location, []Value): // call_post, return
		return func(g []Event) { cb(g[0].Loc(), d.values(g)) }
	case func(Location, int, []Value, int64): // call_pre
		return func(g []Event) { cb(g[0].Loc(), int(int32(g[0].Aux)), d.values(g), int64(g[0].Vals[0])) }
	}
	// No callback observes these records.
	return func([]Event) {}
}

// values decodes the value vector of the call or return group g into the
// decoder's buffer. An empty vector is nil, as on the callback path.
func (d *decoder) values(g []Event) []Value {
	d.vals, _ = d.tbl.AppendValues(d.vals[:0], g, 0)
	if len(d.vals) == 0 {
		return nil
	}
	return d.vals
}
