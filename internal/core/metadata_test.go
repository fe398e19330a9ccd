package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"wasabi/internal/analysis"
)

// TestMetadataJSONRoundTrip: the CLI persists Metadata as JSON (the analogue
// of Wasabi's generated JavaScript glue); everything the runtime needs must
// survive serialization.
func TestMetadataJSONRoundTrip(t *testing.T) {
	m := buildCallModule()
	_, md, err := Instrument(m, Options{Hooks: analysis.AllHooks})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(md)
	if err != nil {
		t.Fatal(err)
	}
	var back Metadata
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumHooks != md.NumHooks || back.NumImportedFuncs != md.NumImportedFuncs {
		t.Errorf("counts lost: %+v", back)
	}
	if len(back.Specs) != len(md.Specs) {
		t.Fatalf("hooks lost: %d vs %d", len(back.Specs), len(md.Specs))
	}
	for i := range md.Specs {
		if !reflect.DeepEqual(md.Specs[i], back.Specs[i]) {
			t.Errorf("hook %d changed: %+v vs %+v", i, md.Specs[i], back.Specs[i])
		}
	}
	if len(back.BrTables) != len(md.BrTables) {
		t.Errorf("br_table records changed: %d vs %d", len(back.BrTables), len(md.BrTables))
	}
	for i := range md.BrTables {
		if !reflect.DeepEqual(md.BrTables[i], back.BrTables[i]) {
			t.Errorf("br_table record %d changed", i)
		}
	}
	if back.HookSet != md.HookSet {
		t.Errorf("hook set changed: %v vs %v", back.HookSet, md.HookSet)
	}
}

// TestStartHookFires: the start hook must fire during instantiation, before
// any export is invoked (paper Table 2 footnote: start is one of the 23).
func TestStartHookFires(t *testing.T) {
	m := buildCallModule() // has a start function
	out, md, err := Instrument(m, Options{Hooks: analysis.Set(analysis.KindStart)})
	if err != nil {
		t.Fatal(err)
	}
	if md.NumHooks != 1 || md.Specs[0].Name != "start" {
		t.Fatalf("hooks: %+v", md.Specs)
	}
	// The start hook call must be inside the instrumented start function.
	startDefined := int(*out.Start) - (md.NumImportedFuncs + md.NumHooks)
	found := false
	for _, in := range out.Funcs[startDefined].Body {
		if in.Op.String() == "call" && in.Idx == uint32(md.NumImportedFuncs) {
			found = true
		}
	}
	if !found {
		t.Error("start function does not call the start hook")
	}
}
