// Analysis-service: the paper's "instrument once, analyze many" workflow as
// a multi-tenant HTTP service over one shared engine — the event fabric's
// intended production shape. Tenants upload WebAssembly modules; each
// analysis request runs the module in a contained session (fuel-metered,
// memory-capped) whose event stream fans out to four concurrent
// subscribers: an instruction mix, a bounded trace, a function-coverage
// counter, and a record sink. The response reports all four — and the
// service replays the sink's segment file to prove the recorded copy
// matches what the live subscribers saw. A segment lives only as long as
// its request, so the service never syncs one to disk.
//
// The program starts the service on a loopback port, then runs a
// self-checking client against it: a well-behaved tenant whose results are
// asserted in detail (also under 8 concurrent analyses of the same module),
// a runaway tenant (infinite loop) that the fuel budget must contain without
// taking the service down, an upload over the size cap and a module over the
// memory cap that must both be refused — with no segment file left behind by
// any of them.
//
// Run with:
//
//	go run ./examples/analysis-service
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"wasabi"
	"wasabi/internal/analyses"
	"wasabi/internal/analysis"
	"wasabi/internal/binary"
	"wasabi/internal/builder"
	"wasabi/internal/interp"
	"wasabi/internal/sink"
	"wasabi/internal/wasm"
)

// fuelBudget bounds every tenant invocation: generous for real work at this
// scale, fatal for a runaway loop.
const fuelBudget = 1 << 16

// traceHead bounds the per-request trace excerpt.
const traceHead = 8

// maxUploadBytes caps one module upload. The service reads the body before
// decoding it, so without a cap one request could make it buffer any
// amount of memory.
const maxUploadBytes = 1 << 20

// service is the shared state: one engine (so every tenant benefits from
// the same instrumentation cache and containment config) and the uploaded
// compiled modules.
type service struct {
	engine   *wasabi.Engine
	dir      string        // scratch directory for the per-request segment files
	segments atomic.Uint64 // numbers the segment files, one per analysis

	mu      sync.Mutex
	modules map[string]*wasabi.CompiledAnalysis
	nextID  int
}

// uploadReply answers POST /modules.
type uploadReply struct {
	ID    string `json:"id"`
	Funcs int    `json:"funcs"`
}

// opCount is one instruction-mix row.
type opCount struct {
	Op string `json:"op"`
	N  uint64 `json:"n"`
}

// analyzeReply answers POST /modules/{id}/analyze: the per-tenant analysis
// results of one contained run.
type analyzeReply struct {
	Return       int64     `json:"return,omitempty"`
	Trap         string    `json:"trap,omitempty"`
	Instructions uint64    `json:"instructions"`
	TopOps       []opCount `json:"top_ops"`
	TraceHead    []string  `json:"trace_head"`
	FuncsSeen    int       `json:"funcs_seen"`
	Recorded     uint64    `json:"recorded"`
	Replayed     uint64    `json:"replayed"`
	FuelUsed     uint64    `json:"fuel_used"`
}

// funcCoverage counts the distinct functions that produced events — the
// cheapest useful per-tenant subscriber, here to stand for "your own
// analysis on a subscription". It marks each function by its original
// index in a slice sized from the module, so a record costs no hashing.
type funcCoverage struct {
	seen []bool
	n    int
}

func (c *funcCoverage) Events(batch []analysis.Event) {
	for i := range batch {
		if f := batch[i].Func; batch[i].Hook != analysis.EventCont && !c.seen[f] {
			c.seen[f] = true
			c.n++
		}
	}
}

func (s *service) handleUpload(w http.ResponseWriter, req *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxUploadBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("upload exceeds the %d-byte cap", tooLarge.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	m, err := binary.Decode(data)
	if err != nil {
		http.Error(w, "decode: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}
	compiled, err := s.engine.Instrument(m, wasabi.AllCaps)
	if err != nil {
		http.Error(w, "instrument: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("m%d", s.nextID)
	s.modules[id] = compiled
	s.mu.Unlock()
	json.NewEncoder(w).Encode(uploadReply{ID: id, Funcs: len(m.Funcs)})
}

func (s *service) handleAnalyze(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	s.mu.Lock()
	compiled := s.modules[id]
	s.mu.Unlock()
	if compiled == nil {
		http.Error(w, "unknown module "+id, http.StatusNotFound)
		return
	}
	entry := req.URL.Query().Get("entry")
	var args []interp.Value
	if v := req.URL.Query().Get("arg"); v != "" {
		n, err := strconv.ParseInt(v, 10, 32)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad arg %q: want an int32", v), http.StatusBadRequest)
			return
		}
		args = append(args, interp.I32(int32(n)))
	}
	reply, err := s.analyze(compiled, id, entry, args)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	json.NewEncoder(w).Encode(reply)
}

// analyze runs one contained, fanned-out session: four subscribers drain
// concurrently while the tenant's code executes, then the sink's segment is
// replayed to check its record count. The segment is never synced: it is
// deleted before the reply is sent.
func (s *service) analyze(compiled *wasabi.CompiledAnalysis, id, entry string, args []interp.Value) (*analyzeReply, error) {
	sess, err := compiled.NewSession(wasabi.StreamCaps(wasabi.AllCaps))
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	fab, err := sess.Fanout()
	if err != nil {
		return nil, err
	}

	mix := analyses.NewStreamInstructionMix()
	mix.SetEventTable(fab.Table())
	tracer := analyses.NewStreamTracer()
	tracer.MaxEvents = traceHead
	tracer.SetEventTable(fab.Table())
	cov := &funcCoverage{seen: make([]bool, len(fab.Table().Info.FuncTypes))}
	// Every analysis records into its own segment file, which lives only as
	// long as the request: two writers on one file would overwrite each
	// other's records, so concurrent analyses of one module never share one.
	segment := filepath.Join(s.dir, fmt.Sprintf("%s-%d.evlog", id, s.segments.Add(1)))
	defer os.Remove(segment)
	rec, err := sink.Create(segment, fab.Table())
	if err != nil {
		return nil, err
	}
	// Every return path below has ended the stream and waited for the
	// subscribers first, so the writer is idle when this runs.
	defer rec.Close()

	var wg sync.WaitGroup
	for _, consumer := range []wasabi.EventSink{mix, tracer, cov, rec} {
		sub, err := fab.Subscribe()
		if err != nil {
			fab.Close()
			wg.Wait()
			return nil, err
		}
		wg.Add(1)
		go func(c wasabi.EventSink) {
			defer wg.Done()
			sub.Serve(c)
		}(consumer)
	}

	inst, err := sess.Instantiate("", nil)
	if err != nil {
		fab.Close()
		wg.Wait()
		return nil, err
	}
	res, invokeErr := inst.Invoke(entry, args...)
	fuelUsed := fuelBudget - inst.Fuel()
	fab.Close() // flush and end the stream
	wg.Wait()   // the subscribers drain their queues and return
	if err := rec.Close(); err != nil {
		return nil, err
	}

	reply := &analyzeReply{
		Instructions: mix.Total(),
		TraceHead:    tracer.Lines,
		FuncsSeen:    cov.n,
		Recorded:     rec.Count(),
		FuelUsed:     fuelUsed,
	}
	if invokeErr != nil {
		// Containment working as intended is a result, not a server error.
		switch {
		case errors.Is(invokeErr, wasabi.ErrFuelExhausted):
			reply.Trap = "fuel exhausted"
		case errors.Is(invokeErr, wasabi.ErrLimit):
			reply.Trap = "resource limit"
		default:
			reply.Trap = invokeErr.Error()
		}
	} else if len(res) == 1 {
		reply.Return = int64(res[0])
	}
	for op, n := range mix.Counts() {
		reply.TopOps = append(reply.TopOps, opCount{Op: op, N: n})
	}
	sort.Slice(reply.TopOps, func(i, j int) bool {
		if reply.TopOps[i].N != reply.TopOps[j].N {
			return reply.TopOps[i].N > reply.TopOps[j].N
		}
		return reply.TopOps[i].Op < reply.TopOps[j].Op
	})
	if len(reply.TopOps) > 3 {
		reply.TopOps = reply.TopOps[:3]
	}

	// Close the loop on the recording: replay the segment and compare.
	r, err := sink.Open(segment)
	if err != nil {
		return nil, err
	}
	reply.Replayed = r.Count()
	r.Close()
	return reply, nil
}

// workModule is the well-behaved tenant: main(n) sums square(i) for
// i in [0,n), bouncing each partial sum through linear memory.
func workModule() []byte {
	b := builder.New()
	b.Memory(1)
	square := b.Func("square", builder.V(wasm.I32), builder.V(wasm.I64))
	square.Get(0).Op(wasm.OpI64ExtendI32U)
	square.Get(0).Op(wasm.OpI64ExtendI32U)
	square.Op(wasm.OpI64Mul)
	square.Done()

	f := b.Func("main", builder.V(wasm.I32), builder.V(wasm.I64))
	i := f.Local(wasm.I32)
	f.ForI32(i, func(fb *builder.FuncBuilder) { fb.Get(0) }, func(fb *builder.FuncBuilder) {
		fb.I32(16)
		fb.I32(16).Load(wasm.OpI64Load, 0)
		fb.Get(i).Call(square.Index).Op(wasm.OpI64Add)
		fb.Store(wasm.OpI64Store, 0)
	})
	f.I32(16).Load(wasm.OpI64Load, 0)
	f.Done()
	data, err := binary.Encode(b.Build())
	if err != nil {
		log.Fatal(err)
	}
	return data
}

// bigMemoryModule declares 5 pages of memory, one over the service's cap.
func bigMemoryModule() []byte {
	b := builder.New()
	b.Memory(5)
	f := b.Func("main", nil, nil)
	f.Op(wasm.OpNop)
	f.Done()
	data, err := binary.Encode(b.Build())
	if err != nil {
		log.Fatal(err)
	}
	return data
}

// spinModule is the runaway tenant: main loops forever.
func spinModule() []byte {
	b := builder.New()
	f := b.Func("main", nil, nil)
	f.Loop().Op(wasm.OpNop).Br(0).End()
	f.Done()
	data, err := binary.Encode(b.Build())
	if err != nil {
		log.Fatal(err)
	}
	return data
}

// newService returns the routes of a service over a fresh engine, writing
// its segment files under dir.
func newService(dir string) (http.Handler, error) {
	engine, err := wasabi.NewEngine(
		wasabi.WithFuel(fuelBudget),
		wasabi.WithMemoryLimitPages(4),
	)
	if err != nil {
		return nil, err
	}
	svc := &service{engine: engine, dir: dir, modules: map[string]*wasabi.CompiledAnalysis{}}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /modules", svc.handleUpload)
	mux.HandleFunc("POST /modules/{id}/analyze", svc.handleAnalyze)
	return mux, nil
}

func main() {
	dir, err := os.MkdirTemp("", "analysis-service")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	mux, err := newService(dir)
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("analysis service listening on %s (shared engine, fuel %d, memory cap 4 pages)\n",
		ln.Addr(), fuelBudget)

	// --- self-checking client ---

	upload := func(module []byte) uploadReply {
		resp, err := http.Post(base+"/modules", "application/wasm", bytes.NewReader(module))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			log.Fatalf("upload: %s: %s", resp.Status, body)
		}
		var up uploadReply
		if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
			log.Fatal(err)
		}
		return up
	}
	// request posts an analysis; a failed one returns its status and body.
	request := func(id, query string) (analyzeReply, int, string) {
		resp, err := http.Post(base+"/modules/"+id+"/analyze?"+query, "", nil)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		var ar analyzeReply
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			return ar, resp.StatusCode, string(body)
		}
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			log.Fatal(err)
		}
		return ar, resp.StatusCode, ""
	}
	analyze := func(id, query string) analyzeReply {
		ar, status, body := request(id, query)
		if status != http.StatusOK {
			log.Fatalf("analyze %s: %d: %s", id, status, body)
		}
		return ar
	}

	work := upload(workModule())
	spin := upload(spinModule())
	fmt.Printf("uploaded %s (%d funcs) and %s (%d funcs) to the shared engine\n",
		work.ID, work.Funcs, spin.ID, spin.Funcs)

	// Tenant 1: real work. sum(i^2, i<10) = 285, observed by all four
	// subscribers, with the recorded copy replaying to the same record count.
	wr := analyze(work.ID, "entry=main&arg=10")
	if wr.Trap != "" {
		log.Fatalf("work tenant trapped: %s", wr.Trap)
	}
	if wr.Return != 285 {
		log.Fatalf("main(10) = %d, want 285", wr.Return)
	}
	if wr.Recorded == 0 || wr.Recorded != wr.Replayed {
		log.Fatalf("recorded copy diverged: recorded %d, replayed %d", wr.Recorded, wr.Replayed)
	}
	if wr.FuncsSeen != 2 {
		log.Fatalf("funcs seen = %d, want 2 (main + square)", wr.FuncsSeen)
	}
	if len(wr.TraceHead) != traceHead {
		log.Fatalf("trace head has %d lines, want %d", len(wr.TraceHead), traceHead)
	}
	if wr.Instructions == 0 || wr.FuelUsed == 0 {
		log.Fatalf("empty observation: %d instructions, %d fuel", wr.Instructions, wr.FuelUsed)
	}
	fmt.Printf("tenant %s: main(10) = %d, %d instructions over %d funcs, top ops %v\n",
		work.ID, wr.Return, wr.Instructions, wr.FuncsSeen, wr.TopOps)
	fmt.Printf("tenant %s: %d records fanned out to 4 subscribers; segment replay matches (%d records)\n",
		work.ID, wr.Recorded, wr.Replayed)

	// Tenant 2: the runaway loop. The fuel budget must stop it, the fabric
	// must wind down cleanly, and the service must keep serving.
	sr := analyze(spin.ID, "entry=main")
	if sr.Trap != "fuel exhausted" {
		log.Fatalf("spin tenant: trap = %q, want fuel exhaustion", sr.Trap)
	}
	if sr.FuelUsed < fuelBudget {
		log.Fatalf("spin tenant used %d fuel of %d", sr.FuelUsed, fuelBudget)
	}
	if sr.Recorded == 0 || sr.Recorded != sr.Replayed {
		log.Fatalf("spin tenant recording diverged: %d vs %d", sr.Recorded, sr.Replayed)
	}
	fmt.Printf("runaway tenant contained: fuel exhausted after %d instructions; %d records still replayable\n",
		sr.Instructions, sr.Recorded)

	// The first tenant must be unaffected by its noisy neighbor, also when
	// it runs many analyses of the same module at once.
	const concurrent = 8
	replies := make([]analyzeReply, concurrent)
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i] = analyze(work.ID, "entry=main&arg=10")
		}(i)
	}
	wg.Wait()
	for _, again := range replies {
		if again.Return != wr.Return || again.Recorded != wr.Recorded || again.Replayed != wr.Recorded {
			log.Fatalf("service degraded after containment: %+v vs %+v", again, wr)
		}
	}
	fmt.Printf("tenant %s: %d concurrent analyses each recorded and replayed %d records\n",
		work.ID, concurrent, wr.Recorded)

	// An upload over the size cap is refused before it is decoded, and
	// registers nothing: the next upload gets the next id.
	resp, err := http.Post(base+"/modules", "application/wasm", bytes.NewReader(make([]byte, maxUploadBytes+1)))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		log.Fatalf("oversized upload: %s, want %d", resp.Status, http.StatusRequestEntityTooLarge)
	}

	// A module over the memory cap uploads, but its analysis is refused.
	big := upload(bigMemoryModule())
	if big.ID != "m3" {
		log.Fatalf("upload after the oversized one got id %s, want m3: the refused upload registered a module", big.ID)
	}
	fmt.Printf("oversized upload refused (HTTP %d, cap %d bytes); nothing registered\n", resp.StatusCode, maxUploadBytes)
	_, status, _ := request(big.ID, "entry=main")
	if status == http.StatusOK {
		log.Fatalf("module %s over the memory cap was analyzed", big.ID)
	}
	fmt.Printf("tenant %s over the memory cap refused (HTTP %d)\n", big.ID, status)

	// Every analysis, failed or not, removed its segment file.
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		log.Fatalf("segment files left behind: %v (%v)", left, err)
	}
	fmt.Println("analysis service: upload, contained fan-out analysis, and segment replay verified over HTTP; no segment file left behind")
}
