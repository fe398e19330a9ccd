// Multi-module linking (API v2): instantiate a library module and an
// application module that imports the library's exports, each under its own
// analysis session, off one shared engine. The engine's named-instance
// registry resolves the app's ("mathlib", ...) imports against the
// registered library instance, and every hook event stays with the session
// whose instance fired it — one analysis per module, the paper's
// instrument-once workflow stretched across a linked module graph.
//
// Run with:
//
//	go run ./examples/multimodule
package main

import (
	"fmt"
	"log"

	"wasabi"
	"wasabi/internal/analyses"
	"wasabi/internal/builder"
	"wasabi/internal/interp"
	"wasabi/internal/wasm"
)

// mathlib exports square(x) and cube(x).
func mathlib() *wasm.Module {
	b := builder.New()
	sq := b.Func("square", builder.V(wasm.I32), builder.V(wasm.I32))
	sq.Get(0).Get(0).Op(wasm.OpI32Mul)
	sq.Done()
	cu := b.Func("cube", builder.V(wasm.I32), builder.V(wasm.I32))
	cu.Get(0).Get(0).Op(wasm.OpI32Mul).Get(0).Op(wasm.OpI32Mul)
	cu.Done()
	return b.Build()
}

// app imports both mathlib exports and computes square(x) + cube(x).
func app() *wasm.Module {
	b := builder.New()
	sig := builder.Sig(builder.V(wasm.I32), builder.V(wasm.I32))
	sq := b.ImportFunc("mathlib", "square", sig)
	cu := b.ImportFunc("mathlib", "cube", sig)
	f := b.Func("main", builder.V(wasm.I32), builder.V(wasm.I32))
	f.Get(0).Call(sq).Get(0).Call(cu).Op(wasm.OpI32Add)
	f.Done()
	return b.Build()
}

func main() {
	engine, err := wasabi.NewEngine()
	if err != nil {
		log.Fatal(err)
	}

	// One session (and analysis) per module, instrumented independently.
	libMix := analyses.NewInstructionMix()
	libCompiled, err := engine.InstrumentFor(mathlib(), libMix)
	if err != nil {
		log.Fatal(err)
	}
	libSess, err := libCompiled.NewSession(libMix)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := libSess.Instantiate("mathlib", nil); err != nil {
		log.Fatal(err)
	}

	appGraph := analyses.NewCallGraph()
	appCompiled, err := engine.InstrumentFor(app(), appGraph)
	if err != nil {
		log.Fatal(err)
	}
	appSess, err := appCompiled.NewSession(appGraph)
	if err != nil {
		log.Fatal(err)
	}
	// No explicit imports: ("mathlib", ...) resolves from the registry.
	appInst, err := appSess.Instantiate("app", nil)
	if err != nil {
		log.Fatal(err)
	}

	res, err := appInst.Invoke("main", interp.I32(5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("app linked against %v\n", engine.InstanceNames())
	fmt.Printf("main(5) = square(5) + cube(5) = %d (expect 150)\n", interp.AsI32(res[0]))

	fmt.Printf("mathlib session counted %d instructions inside the library\n", libMix.Total())
	fmt.Printf("app session recorded %d call edges; library internals stayed in the library's session\n",
		len(appGraph.Edges))
	if interp.AsI32(res[0]) != 150 {
		log.Fatal("wrong result through the linked modules")
	}
	fmt.Println("cross-module imports resolved through the engine registry")
}
