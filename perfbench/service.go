package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wasabi"
	"wasabi/internal/analyses"
	"wasabi/internal/analysis"
	"wasabi/internal/binary"
	"wasabi/internal/interp"
	"wasabi/internal/sink"
	"wasabi/internal/wasm"
)

// The service workload replays the request path of examples/analysis-service
// without HTTP: a closed loop of serviceTenants tenants over one engine
// configured like the example (fuel-guarded, memory-capped).
var (
	// serviceLadder fixes the module sizes (serviceModulesPerSize of each)
	// so that every seed weighs the same mix of compile costs.
	serviceLadder = []int{32 << 10, 64 << 10, 128 << 10, 256 << 10}
	// serviceNs are the main(n) arguments an analysis draws from.
	serviceNs = []int32{64, 128, 256}
)

const (
	serviceModulesPerSize = 2
	serviceTenants        = 2
	serviceMaxAnalyses    = 4 // analyses per upload, drawn from 1..4
	// servicePlanVisits is the length of a tenant's plan, walked from the
	// start and longer than any run gets through: fresh draws all the way,
	// so a run's mix converges on the distribution instead of repeating a
	// short cycle. The exact figures cover the first serviceExactVisits.
	servicePlanVisits  = 512
	serviceExactVisits = 16
	serviceFuel        = 1 << 28 // per invoke; generous for main(256)
	serviceMemoryPages = 4
	serviceTraceHead   = 8
)

// svcModule is one module tenants upload.
type svcModule struct {
	name  string
	data  []byte
	funcs int              // defined functions
	want  map[int32]uint64 // main(n) in the reference interpreter
}

// svcVisit is one upload followed by one analysis per n.
type svcVisit struct {
	mod int
	ns  []int32
}

type svcPair struct {
	mod int
	n   int32
}

// svcExact are the figures of one analysis that depend only on its module
// and n; every analysis of the pair must reproduce them.
type svcExact struct {
	records, fuel, bytes uint64
	funcsSeen            int
}

// svcResult is one completed analysis.
type svcResult struct {
	latency, invoke time.Duration
	records         uint64
}

type svcState struct {
	eng   *wasabi.Engine
	mods  []*svcModule
	plans [][]svcVisit // per tenant, walked from the start
	seg   atomic.Int64 // segment file names

	mu      sync.Mutex
	exact   map[svcPair]svcExact
	dropped uint64
}

func newService(b *bench) (*svcState, error) {
	eng, err := wasabi.NewEngine(wasabi.WithFuel(serviceFuel), wasabi.WithMemoryLimitPages(serviceMemoryPages))
	if err != nil {
		return nil, err
	}
	s := &svcState{eng: eng, exact: map[svcPair]svcExact{}}
	var params []map[string]any
	for i := 0; i < len(serviceLadder)*serviceModulesPerSize; i++ {
		r := newRNG(b.seed, fmt.Sprintf("service/module/%d", i))
		m, data, cfg, err := synthModule(r, serviceLadder[i/serviceModulesPerSize])
		if err != nil {
			return nil, err
		}
		mod := &svcModule{name: fmt.Sprintf("svc%d", i), data: data, funcs: len(m.Funcs), want: map[int32]uint64{}}
		for _, n := range serviceNs {
			res, err := refRun(m, "main", []uint64{uint64(uint32(n))})
			if err != nil {
				return nil, fmt.Errorf("reference run of %s: %w", mod.name, err)
			}
			mod.want[n] = res[0]
		}
		s.mods = append(s.mods, mod)
		params = append(params, map[string]any{
			"name": mod.name, "bytes": len(data), "seed": cfg.Seed, "table": cfg.TableSize,
			"helpers": cfg.Helpers, "max_extra_args": cfg.MaxExtraArgs,
		})
	}
	var plans [][]string
	for t := 0; t < serviceTenants; t++ {
		r := newRNG(b.seed, fmt.Sprintf("service/tenant/%d", t))
		var plan []svcVisit
		var desc []string
		for len(plan) < servicePlanVisits {
			for _, mi := range r.perm(len(s.mods)) {
				v := svcVisit{mod: mi}
				for a := r.between(1, serviceMaxAnalyses); a > 0; a-- {
					v.ns = append(v.ns, serviceNs[r.intn(len(serviceNs))])
				}
				plan = append(plan, v)
				if len(desc) < serviceExactVisits {
					desc = append(desc, fmt.Sprintf("%s%v", s.mods[mi].name, v.ns))
				}
			}
		}
		s.plans = append(s.plans, plan)
		plans = append(plans, desc)
	}
	b.param("service_modules", params)
	b.param("service_plans", plans)

	// Warm-up: one upload and analysis of the smallest module.
	m, compiled, err := s.upload(b, -1, -1, s.mods[0])
	if err != nil {
		return nil, err
	}
	defer s.eng.Uncache(m)
	if _, err := s.analyze(b, -1, -1, compiled, 0, serviceNs[0]); err != nil {
		return nil, err
	}
	return s, nil
}

// tenant is one client's position in its plan; it persists across windows.
type tenant struct {
	plan     []svcVisit
	v, i     int // next analysis: visit v, its i-th n
	m        *wasm.Module
	compiled *wasabi.CompiledAnalysis
}

// window drives the closed loop for d: each tenant walks its plan, waiting
// for every result before sending the next request, and stops before the
// first request due after d. It returns the window's results and wall time.
func (s *svcState) window(b *bench, tenants []*tenant, d time.Duration) ([]svcResult, time.Duration) {
	results := make([][]svcResult, len(tenants))
	var wg sync.WaitGroup
	start := time.Now()
	for t, tn := range tenants {
		wg.Add(1)
		go func(t int, tn *tenant) {
			defer wg.Done()
			for time.Since(start) < d {
				r, err := s.next(b, tn)
				b.record(err)
				if err == nil {
					results[t] = append(results[t], r)
				}
			}
		}(t, tn)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []svcResult
	for _, r := range results {
		all = append(all, r...)
	}
	return all, wall
}

// next sends the tenant's next request. A visit's first request uploads the
// module, so its latency is upload-to-result; the module is retired after
// its last analysis, or when a request of the visit fails.
func (s *svcState) next(b *bench, tn *tenant) (svcResult, error) {
	visit := tn.plan[tn.v%len(tn.plan)]
	op := b.op()
	t0 := time.Now()
	root := b.tr.begin("service.result", op, -1)
	var err error
	if tn.i == 0 {
		tn.m, tn.compiled, err = s.upload(b, op, root, s.mods[visit.mod])
	}
	var r svcResult
	if err == nil {
		r, err = s.analyze(b, op, root, tn.compiled, visit.mod, visit.ns[tn.i])
	}
	b.tr.end(root)
	r.latency = time.Since(t0)
	if tn.i++; err != nil || tn.i == len(visit.ns) {
		s.retire(tn)
		tn.v, tn.i = tn.v+1, 0
	}
	return r, err
}

// retire releases the tenant's current module, if any.
func (s *svcState) retire(tn *tenant) {
	if tn.m != nil {
		s.eng.Uncache(tn.m)
	}
	tn.m, tn.compiled = nil, nil
}

// upload is the example's POST /modules: decode, then instrument for every
// hook on the shared engine.
func (s *svcState) upload(b *bench, op int64, root int32, mod *svcModule) (*wasm.Module, *wasabi.CompiledAnalysis, error) {
	sp := b.tr.begin("binary.Decode.upload", op, root)
	m, err := binary.Decode(mod.data)
	b.tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: decode: %w", mod.name, err)
	}
	sp = b.tr.begin("wasabi.Engine.Instrument", op, root)
	compiled, err := s.eng.Instrument(m, wasabi.AllCaps)
	b.tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: instrument: %w", mod.name, err)
	}
	return m, compiled, nil
}

// subscriber is one fan-out consumer with the names of its wait and busy
// spans.
type subscriber struct {
	sink       wasabi.EventSink
	wait, busy string
}

// analyze is the example's POST /modules/{id}/analyze: a contained session
// fanned out to an instruction mix, an 8-line trace head, a function-
// coverage counter and a segment sink, then a replay of the segment.
func (s *svcState) analyze(b *bench, op int64, root int32, compiled *wasabi.CompiledAnalysis, mi int, n int32) (svcResult, error) {
	tr, mod := b.tr, s.mods[mi]
	var r svcResult
	fail := func(err error) (svcResult, error) {
		return r, fmt.Errorf("%s main(%d): %w", mod.name, n, err)
	}

	sp := tr.begin("wasabi.Session.open", op, root)
	sess, err := compiled.NewSession(wasabi.StreamCaps(wasabi.AllCaps))
	if err != nil {
		tr.end(sp)
		return fail(err)
	}
	defer sess.Close()
	fab, err := sess.Fanout()
	if err != nil {
		tr.end(sp)
		return fail(err)
	}
	mix := analyses.NewStreamInstructionMix()
	mix.SetEventTable(fab.Table())
	tracer := analyses.NewStreamTracer()
	tracer.MaxEvents = serviceTraceHead
	tracer.SetEventTable(fab.Table())
	cov := &funcCoverage{seen: map[int32]bool{}}
	path := filepath.Join(b.scratch, fmt.Sprintf("seg-%d.evlog", s.seg.Add(1)))
	defer os.Remove(path)
	rec, err := sink.Create(path, fab.Table())
	if err != nil {
		tr.end(sp)
		return fail(err)
	}
	defer rec.Close()
	var wg sync.WaitGroup
	var subs []*wasabi.Subscription
	for _, c := range []subscriber{
		{mix, "fabric.Next.mix", "analyses.StreamInstructionMix"},
		{tracer, "fabric.Next.tracer", "analyses.StreamTracer"},
		{cov, "fabric.Next.funccov", "service.funccov"},
		{rec, "fabric.Next.sink", "sink.Writer.Events"},
	} {
		sub, err := fab.Subscribe()
		if err != nil {
			fab.Close()
			wg.Wait()
			tr.end(sp)
			return fail(err)
		}
		subs = append(subs, sub)
		wg.Add(1)
		go func(c subscriber) {
			defer wg.Done()
			serve(tr, op, root, sub, c)
		}(c)
	}
	tr.end(sp)

	sp = tr.begin("wasabi.Session.Instantiate", op, root)
	inst, err := sess.Instantiate("", nil)
	tr.end(sp)
	if err != nil {
		fab.Close()
		wg.Wait()
		return fail(err)
	}
	sp = tr.begin("interp.Invoke.service", op, root)
	t0 := time.Now()
	res, invokeErr := inst.Invoke("main", interp.I32(n))
	r.invoke = time.Since(t0)
	tr.end(sp)
	fuel := serviceFuel - inst.Fuel()

	sp = tr.begin("wasabi.Fabric.Close", op, root)
	fab.Close()
	wg.Wait()
	tr.end(sp)
	sp = tr.begin("sink.Writer.Close", op, root)
	closeErr := rec.Close()
	tr.end(sp)
	sp = tr.begin("sink.Open", op, root)
	replay, openErr := sink.Open(path)
	var replayed uint64
	if openErr == nil {
		replayed = replay.Count()
		replay.Close()
	}
	tr.end(sp)
	sp = tr.begin("wasabi.Session.Close", op, root)
	sess.Close()
	tr.end(sp)

	var dropped uint64
	for _, sub := range subs {
		dropped += sub.Dropped()
	}
	s.mu.Lock()
	s.dropped += dropped
	s.mu.Unlock()
	switch {
	case invokeErr != nil:
		return fail(invokeErr)
	case len(res) != 1 || res[0] != mod.want[n]:
		return fail(fmt.Errorf("returned %v, reference %d", res, mod.want[n]))
	case closeErr != nil:
		return fail(fmt.Errorf("sink close: %w", closeErr))
	case openErr != nil:
		return fail(fmt.Errorf("sink replay: %w", openErr))
	case rec.Count() == 0 || rec.Count() != replayed:
		return fail(fmt.Errorf("recorded %d records, replayed %d", rec.Count(), replayed))
	case dropped != 0 || fab.Dropped() != 0:
		return fail(fmt.Errorf("subscribers dropped %d records, producer %d", dropped, fab.Dropped()))
	case fab.Err() != nil:
		return fail(fmt.Errorf("fabric: %w", fab.Err()))
	case len(tracer.Lines) != serviceTraceHead:
		return fail(fmt.Errorf("trace head has %d lines, want %d", len(tracer.Lines), serviceTraceHead))
	case mix.Total() == 0:
		return fail(fmt.Errorf("instruction mix saw nothing"))
	}
	info, err := os.Stat(path)
	if err != nil {
		return fail(err)
	}
	r.records = rec.Count()
	got := svcExact{records: r.records, fuel: fuel, bytes: uint64(info.Size()), funcsSeen: len(cov.seen)}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := svcPair{mi, n}
	if prev, ok := s.exact[key]; ok && prev != got {
		return fail(fmt.Errorf("analysis figures %+v differ from an earlier run's %+v", got, prev))
	}
	s.exact[key] = got
	return r, nil
}

// serve is Subscription.Serve with a span around every Next (waiting) and
// every batch handed to the sink (busy).
func serve(tr *tracer, op int64, root int32, sub *wasabi.Subscription, c subscriber) {
	for {
		s := tr.begin(c.wait, op, root)
		batch, ok := sub.Next()
		tr.end(s)
		if !ok {
			return
		}
		s = tr.begin(c.busy, op, root)
		c.sink.Events(batch)
		tr.end(s)
	}
}

// funcCoverage counts the distinct functions that produced events, like the
// example's per-tenant subscriber.
type funcCoverage struct {
	seen map[int32]bool
}

func (c *funcCoverage) Events(batch []analysis.Event) {
	for i := range batch {
		if batch[i].Hook != analysis.EventCont {
			c.seen[batch[i].Func] = true
		}
	}
}

// planned returns every analysis of the first serviceExactVisits visits of
// every tenant's plan.
func (s *svcState) planned() (pairs []svcPair, visits int) {
	for _, plan := range s.plans {
		for _, v := range plan[:serviceExactVisits] {
			visits++
			for _, n := range v.ns {
				pairs = append(pairs, svcPair{v.mod, n})
			}
		}
	}
	return pairs, visits
}

// serviceWindow is the length of the closed loop's timed window in a round.
const serviceWindow = 2 * time.Second

// setResultMetrics reports the service's latency, throughput and stream
// rate over every result of the phase's windows. A window's results come
// from the few modules its tenants are on, so a per-window figure would
// hinge on which ones; pooled over the phase, the results follow the plans'
// mix.
func setResultMetrics(b *bench, results []svcResult, wall time.Duration) {
	var lats []float64
	var records float64
	var invoke time.Duration
	for _, r := range results {
		lats = append(lats, ms(r.latency))
		records += float64(r.records)
		invoke += r.invoke
	}
	b.set("result_ms_p50", quantile(lats, 0.5))
	b.set("result_ms_p90", quantile(lats, 0.9))
	b.set("results_per_s", float64(len(results))/wall.Seconds())
	b.set("stream_events_per_s", records/invoke.Seconds())
}

// runServiceWorkload replays the analysis service's request path.
// Companion: both instrument paths and both delivery modes of main(128) on
// one module of each size.
func runServiceWorkload(b *bench) error {
	type state struct {
		*svcState
		inputs []*instrInput
		instr  *instrFamily
		exec   *execFamily
	}
	s, err := setup(b, func() (*state, error) {
		svc, err := newService(b)
		if err != nil {
			return nil, err
		}
		st := &state{svcState: svc}
		for i := 0; i < len(svc.mods); i += serviceModulesPerSize {
			mod := svc.mods[i]
			st.inputs = append(st.inputs, &instrInput{name: mod.name, data: mod.data, entry: "main",
				args: []uint64{128}, want: []uint64{mod.want[128]}})
		}
		if st.instr, err = newInstrFamily(); err != nil {
			return nil, err
		}
		progs, err := synthPrograms(st.inputs)
		if err != nil {
			return nil, err
		}
		if st.exec, err = newExecFamily(b, progs); err != nil {
			return nil, err
		}
		return st, nil
	}, func(s *state) { s.exec.close(b) })
	if err != nil {
		return err
	}

	var tenants []*tenant
	for _, plan := range s.plans {
		tenants = append(tenants, &tenant{plan: plan})
	}
	var results []svcResult // of the phase's windows
	var windows time.Duration
	b.phases(func(i int, fig figures) (int, time.Duration) {
		if i == 0 {
			s.instr.reset()
			s.exec.reset()
			results, windows = results[:0], 0
		}
		a0, _ := heapAllocs()
		res, wall := s.window(b, tenants, serviceWindow)
		a1, _ := heapAllocs()
		fig.amount("alloc_mb_per_op", float64(a1-a0)/float64(len(res))/1e6)
		results = append(results, res...)
		windows += wall

		// Each companion starts on a collected heap, so that no collection
		// of the previous slice's garbage runs during its timed ops.
		runtime.GC()
		s.instr.cycle(b, s.inputs)
		runtime.GC()
		s.exec.pass(b, i)
		return len(res), wall
	})
	for _, tn := range tenants {
		s.retire(tn)
	}
	setResultMetrics(b, results, windows)
	b.set("retained_mb", retainedMB())
	s.instr.setMetrics(b, s.inputs, false)
	s.exec.setMetrics(b, false, false)
	b.setCounts(s.instr.verify(b, s.inputs))
	s.exec.close(b)

	// Exact figures over the start of the plans. Pairs the timed windows
	// never reached run once now, outside them.
	pairs, visits := s.planned()
	var sum svcExact
	var frac float64
	for _, p := range pairs {
		s.mu.Lock()
		e, ok := s.exact[p]
		s.mu.Unlock()
		if !ok {
			m, compiled, err := s.upload(b, -1, -1, s.mods[p.mod])
			if err == nil {
				_, err = s.analyze(b, -1, -1, compiled, p.mod, p.n)
				s.eng.Uncache(m)
			}
			b.record(err)
			if err != nil {
				continue
			}
			e = s.exact[p]
		}
		sum.records += e.records
		sum.fuel += e.fuel
		sum.bytes += e.bytes
		frac += float64(e.funcsSeen) / float64(s.mods[p.mod].funcs)
	}
	n := float64(len(pairs))
	b.set("service.records_per_result", float64(sum.records)/n)
	b.set("service.fuel_per_result", float64(sum.fuel)/n)
	b.set("service.funcs_executed_frac", frac/n)
	b.set("service.first_result_share", float64(visits)/n)
	b.set("sink.bytes_per_result", float64(sum.bytes)/n)
	b.set("fabric.dropped", float64(s.dropped))
	return nil
}
