package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"smartndr"
	"smartndr/internal/core"
	"smartndr/internal/obs"
	"smartndr/internal/par"
	"smartndr/internal/serve"
	"smartndr/internal/tech"
	"smartndr/internal/workload"
)

const (
	sessClients   = 2   // keep-alive clients; the tuning machine has 2 cores
	sessSinks     = 300 // sinks per engineer design
	sessDie       = 1600.0
	sessDeltas    = 40 // deltas per script
	sessRollback  = 10 // every 10th delta is a rollback_to
	sessHits      = 8  // repeat /v1/flow requests per script
	sessServed    = 16 // recent cold flows a client replays as hits
	sessPrefill   = 8  // cold flows served in set-up
	sessMinScript = 3  // scripts per client, however short --seconds is
	// sessKeepBodies bounds the request bodies a client keeps for the
	// traced run's decode timing, so memory does not grow with throughput.
	sessKeepBodies = 1000
)

// Request classes, as the client observes them.
const (
	clsCreate = "session_create"
	clsDelta  = "session_delta"
	clsRead   = "session_read"
	clsClose  = "session_close"
	clsHit    = "flow_hit"
	clsCold   = "flow_cold"
)

// sessSpec is a fresh ~300-sink design; kind separates engineer designs
// (sessions) from flow requests, and the distribution rotates with i.
func sessSpec(seed int64, kind string, client, i int) workload.Spec {
	return workload.Spec{
		Name:   fmt.Sprintf("%s-c%d-%d", kind, client, i),
		Dist:   workload.Distribution(i % 4),
		Sinks:  sessSinks,
		DieX:   sessDie,
		DieY:   sessDie * 0.8,
		CapMin: 1e-15,
		CapMax: 4e-15,
		Seed:   par.SubstreamSeed(seed, 1<<24+client<<20+i),
	}
}

// liveServer is an in-process serve.Server on a loopback listener.
type liveServer struct {
	srv  *serve.Server
	hs   *http.Server
	done chan error
	base string
}

func startServer(cfg serve.Config) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	srv := serve.New(cfg)
	l := &liveServer{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
	}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// stop drains the service, closes the listener and waits for Serve to
// return.
func (l *liveServer) stop(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := l.srv.Drain(ctx); err != nil {
		return fmt.Errorf("draining: %w", err)
	}
	if err := l.hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutting down: %w", err)
	}
	if err := <-l.done; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serving: %w", err)
	}
	return nil
}

// served is one cold /v1/flow response a client may replay as a hit.
type served struct {
	body []byte // request
	resp []byte // cold response body
}

// script is one engineer session as replayed, kept for the checks that
// run after the timed loop.
type script struct {
	spec   workload.Spec
	create string                      // key of the pristine state
	deltas []serve.SessionDeltaRequest // in order
	keys   []string                    // key returned per delta
	final  json.RawMessage             // Result of the last delta
}

// client is one closed-loop keep-alive client.
type client struct {
	b     *bench
	id    int
	base  string
	hc    *http.Client
	rules int

	lat     map[string][]float64 // class → ms
	errs    []error
	n       int
	served  []served
	scripts []*script
	flows   [][]byte // /v1/flow bodies sent
	deltas  [][]byte // delta bodies sent
}

func newClient(b *bench, id int, base string, prefill []served) *client {
	return &client{
		b:  b,
		id: id,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
		base:   base,
		rules:  tech.Tech45().NumRules(),
		lat:    map[string][]float64{},
		served: append([]served(nil), prefill...),
	}
}

// do sends one request and reads the whole reply. Any status but 200 —
// including a 429/503 refusal, whose Retry-After is honoured by not
// retrying — is a failed op.
func (c *client) do(class, method, path string, body []byte) ([]byte, http.Header, error) {
	c.n++
	req, err := http.NewRequestWithContext(c.b.ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, c.failed(err)
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, c.failed(fmt.Errorf("%s %s: %w", method, path, err))
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := ms(t0)
	if err != nil {
		return nil, nil, c.failed(fmt.Errorf("%s %s: reading reply: %w", method, path, err))
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, c.failed(fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out)))
	}
	cls := class
	if class == clsHit && resp.Header.Get("X-Cache") != serve.CacheHit {
		cls = clsCold // evicted since it was served: a cold run after all
	}
	c.lat[cls] = append(c.lat[cls], d)
	return out, resp.Header, nil
}

func (c *client) failed(err error) error {
	c.errs = append(c.errs, err)
	return err
}

func (c *client) post(class, path string, v any) ([]byte, []byte, http.Header, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, nil, nil, c.failed(err)
	}
	out, h, err := c.do(class, http.MethodPost, path, body)
	return body, out, h, err
}

// edits draws one delta's edits: 1–3 of move_sink, sink_cap, sink_rule,
// node_rule.
func (c *client) edits(rng *rand.Rand, nodes int) []smartndr.Edit {
	out := make([]smartndr.Edit, 1+rng.Intn(3))
	for i := range out {
		switch rng.Intn(4) {
		case 0:
			out[i] = smartndr.Edit{Op: core.OpMoveSink, Sink: rng.Intn(sessSinks),
				X: rng.Float64() * sessDie, Y: rng.Float64() * sessDie * 0.8}
		case 1:
			out[i] = smartndr.Edit{Op: core.OpSinkCap, Sink: rng.Intn(sessSinks), Cap: (1 + 3*rng.Float64()) * 1e-15}
		case 2:
			out[i] = smartndr.Edit{Op: core.OpSinkRule, Sink: rng.Intn(sessSinks), Rule: rng.Intn(c.rules)}
		default:
			out[i] = smartndr.Edit{Op: core.OpNodeRule, Node: rng.Intn(nodes), Rule: rng.Intn(c.rules)}
		}
	}
	return out
}

// runScript replays engineer script i: a session on a fresh design with
// 40 deltas and a read, then repeat flows of designs already served and
// one novel design.
func (c *client) runScript(seed int64, i int) {
	rng := rand.New(rand.NewSource(par.SubstreamSeed(seed, 1<<28+c.id<<20+i)))
	sc := &script{spec: sessSpec(seed, "sess", c.id, i)}
	_, out, _, err := c.post(clsCreate, "/v1/session",
		serve.SessionCreateRequest{FlowRequest: serve.FlowRequest{Spec: &sc.spec, Scheme: "smart-ndr"}})
	if err == nil {
		var sr serve.SessionResponse
		if err := json.Unmarshal(out, &sr); err != nil {
			c.failed(fmt.Errorf("session create reply: %w", err))
		} else {
			sc.create = sr.Key
			c.sessionDeltas(rng, sc, sr)
			c.scripts = append(c.scripts, sc)
		}
	}
	for h := 0; h < sessHits && len(c.served) > 0; h++ {
		s := c.served[rng.Intn(len(c.served))]
		out, _, err := c.do(clsHit, http.MethodPost, "/v1/flow", s.body)
		if err == nil && !bytes.Equal(out, s.resp) {
			c.failed(fmt.Errorf("cache-hit body differs from the cold body"))
		}
		c.keep(&c.flows, s.body)
	}
	spec := sessSpec(seed, "flow", c.id, i)
	body, out, hdr, err := c.post(clsCold, "/v1/flow", serve.FlowRequest{Spec: &spec, Scheme: "smart-ndr"})
	if err == nil {
		if hdr.Get("X-Cache") == serve.CacheHit {
			c.failed(fmt.Errorf("novel design %s answered from the cache", spec.Name))
		}
		c.served = append(c.served, served{body: body, resp: out})
		if len(c.served) > sessServed {
			c.served = c.served[1:]
		}
		c.keep(&c.flows, body)
	}
}

// keep records a sent body for decode timing, up to sessKeepBodies.
func (c *client) keep(list *[][]byte, body []byte) {
	if len(*list) < sessKeepBodies {
		*list = append(*list, body)
	}
}

// sessionDeltas applies the script's deltas, reads the session back and
// closes it.
func (c *client) sessionDeltas(rng *rand.Rand, sc *script, sr serve.SessionResponse) {
	path := "/v1/session/" + sr.Session
	// do records a failed close; the script has nothing left to skip.
	defer func() { _, _, _ = c.do(clsClose, http.MethodDelete, path, nil) }()
	revs := 1
	for j := 0; j < sessDeltas; j++ {
		var d serve.SessionDeltaRequest
		if j%sessRollback == sessRollback-1 {
			rb := rng.Intn(revs)
			d.RollbackTo = &rb
		} else {
			d.Edits = c.edits(rng, sr.Nodes)
		}
		body, out, _, err := c.post(clsDelta, path+"/delta", d)
		if err != nil {
			return
		}
		c.keep(&c.deltas, body)
		var dr serve.SessionResponse
		if err := json.Unmarshal(out, &dr); err != nil {
			c.failed(fmt.Errorf("session delta reply: %w", err))
			return
		}
		revs = dr.Revs
		sc.deltas = append(sc.deltas, d)
		sc.keys = append(sc.keys, dr.Key)
		sc.final = dr.Result
	}
	out, _, err := c.do(clsRead, http.MethodGet, path, nil)
	if err == nil {
		var rr serve.SessionResponse
		if err := json.Unmarshal(out, &rr); err != nil || len(sc.keys) == 0 || rr.Key != sc.keys[len(sc.keys)-1] {
			c.failed(fmt.Errorf("session read does not return the last delta's key"))
		}
	}
}

// sessRun is the outcome of one closed-loop phase.
type sessRun struct {
	clients []*client
	wallS   float64
	cpuMS   float64
}

func (r *sessRun) lat(classes ...string) []float64 {
	var out []float64
	for _, c := range r.clients {
		for _, cl := range classes {
			out = append(out, c.lat[cl]...)
		}
	}
	return out
}

func (r *sessRun) requests() int {
	n := 0
	for _, c := range r.clients {
		n += c.n
	}
	return n
}

// prefillSpecs are the designs the set-up serves cold.
func prefillSpecs(seed int64) []workload.Spec {
	out := make([]workload.Spec, sessPrefill)
	for i := range out {
		out[i] = sessSpec(seed, "prefill", 0, i)
	}
	return out
}

// sessPrefillFlows serves the set-up's cold flows, which the clients'
// first scripts replay as hits.
func sessPrefillFlows(b *bench, base string) ([]served, error) {
	c := newClient(b, -1, base, nil)
	defer c.hc.CloseIdleConnections()
	var out []served
	for _, spec := range prefillSpecs(b.seed) {
		body, resp, _, err := c.post(clsCold, "/v1/flow", serve.FlowRequest{Spec: &spec, Scheme: "smart-ndr"})
		if err != nil {
			return nil, err
		}
		out = append(out, served{body: body, resp: resp})
	}
	return out, nil
}

// sessSetup starts the server and serves the prefill flows.
func sessSetup(b *bench, cfg serve.Config) (*liveServer, []served, error) {
	l, err := startServer(cfg)
	if err != nil {
		return nil, nil, err
	}
	pre, err := sessPrefillFlows(b, l.base)
	if err != nil {
		return nil, nil, errors.Join(err, l.stop(b.ctx))
	}
	return l, pre, nil
}

// sessConfig is the service configuration: one slot per client.
func sessConfig() serve.Config { return serve.Config{MaxConcurrent: sessClients} }

// sessPhase runs the clients closed loop for d and returns their record.
func sessPhase(b *bench, base string, pre []served, d time.Duration) *sessRun {
	r := &sessRun{}
	var wg sync.WaitGroup
	start, c0 := time.Now(), cpuTime()
	for id := 0; id < sessClients; id++ {
		c := newClient(b, id, base, pre)
		r.clients = append(r.clients, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.hc.CloseIdleConnections()
			for i := 0; i < sessMinScript || time.Since(start) < d; i++ {
				c.runScript(b.seed, i)
			}
		}()
	}
	wg.Wait()
	r.wallS = time.Since(start).Seconds()
	r.cpuMS = float64((cpuTime() - c0).Nanoseconds()) / 1e6
	return r
}

// verify records every request of the phase as an op and runs the
// checks that are too slow for the timed loop: each delta's key against
// Flow.CanonicalKeyEdits of the script's canonical state, and each
// script's final Result against a cold Flow.RunSpecEdits.
func (r *sessRun) verify(b *bench) {
	for _, c := range r.clients {
		b.attempted += c.n
		for _, err := range c.errs {
			b.fail(err)
		}
	}
	var all []*script
	for _, c := range r.clients {
		all = append(all, c.scripts...)
	}
	errs := make([]error, len(all))
	_ = par.ForEach(b.ctx, sessClients, len(all), func(i int) error {
		errs[i] = verifyScript(b.ctx, all[i])
		return nil
	})
	for _, err := range errs {
		if err != nil {
			b.fail(err)
		}
	}
}

// states returns the canonical edit state after each of the script's
// deltas, as the server resolves them: edits stack on the current state,
// a rollback returns to an earlier revision's state.
func (sc *script) states() [][]smartndr.Edit {
	revs := [][]smartndr.Edit{nil}
	for _, d := range sc.deltas {
		var state []smartndr.Edit
		if d.RollbackTo != nil {
			state = revs[*d.RollbackTo]
		} else {
			state = core.CanonicalEdits(append(append([]smartndr.Edit{}, revs[len(revs)-1]...), d.Edits...))
		}
		revs = append(revs, state)
	}
	return revs[1:]
}

// verifyScript checks a script's keys against the facade's canonical keys
// and its final Result against a cold run of the final state.
func verifyScript(ctx context.Context, sc *script) error {
	f := smartndr.NewFlow(nil)
	key, err := f.CanonicalKey(sc.spec, smartndr.SchemeSmart)
	if err != nil {
		return err
	}
	if key != sc.create {
		return fmt.Errorf("%s: create key differs from Flow.CanonicalKey", sc.spec.Name)
	}
	states := sc.states()
	for j, state := range states {
		want, err := f.CanonicalKeyEdits(sc.spec, smartndr.SchemeSmart, state)
		if err != nil {
			return err
		}
		if sc.keys[j] != want {
			return fmt.Errorf("%s: delta %d key differs from Flow.CanonicalKeyEdits", sc.spec.Name, j)
		}
	}
	if len(states) == 0 {
		return nil
	}
	built, res, err := f.RunSpecEdits(ctx, sc.spec, smartndr.SchemeSmart, states[len(states)-1])
	if err != nil {
		return fmt.Errorf("%s: cold RunSpecEdits: %w", sc.spec.Name, err)
	}
	cold, err := json.Marshal(&serve.FlowResponse{
		Key:      sc.keys[len(sc.keys)-1],
		Bench:    sc.spec.Name,
		Scheme:   smartndr.SchemeSmart.String(),
		Tech:     f.Config().Tech.Name,
		Sinks:    sc.spec.Sinks,
		Buffers:  built.Buffers,
		Clusters: built.NumClusters,
		Metrics:  res.Metrics,
		Stats:    res.Stats,
	})
	if err != nil {
		return err
	}
	if !bytes.Equal(cold, sc.final) {
		return fmt.Errorf("%s: final session state differs from a cold Flow.RunSpecEdits", sc.spec.Name)
	}
	return nil
}

// serveSession times two keep-alive clients replaying engineer scripts
// against an in-process server.
func serveSession(b *bench) error {
	var ls []*liveServer
	var pre []served
	err := b.setSetup("server start on loopback + 8 cold prefill flows", func(int) error {
		l, p, err := sessSetup(b, sessConfig())
		if err == nil {
			ls, pre = append(ls, l), p
		}
		return err
	})
	// Keep the last set-up's server; stop the others, or all on failure.
	keep := len(ls) - 1
	if err != nil {
		keep = len(ls)
	}
	for _, extra := range ls[:keep] {
		if stopErr := extra.stop(b.ctx); err == nil {
			err = stopErr
		}
	}
	if err != nil {
		return err
	}
	l := ls[len(ls)-1]
	r := sessPhase(b, l.base, pre, b.seconds)
	if err := l.stop(b.ctx); err != nil {
		return err
	}
	r.verify(b)
	fmt.Println("end-to-end (client-observed):")
	for _, m := range []struct {
		name, class string
		q           float64
	}{
		{"session_delta_p50_ms", clsDelta, 0.5},
		{"session_delta_p90_ms", clsDelta, 0.9},
		{"session_create_p50_ms", clsCreate, 0.5},
		{"flow_cold_p50_ms", clsCold, 0.5},
		{"flow_hit_p50_ms", clsHit, 0.5},
	} {
		xs := r.lat(m.class)
		b.report(m.name, quantile(xs, m.q), "ms", len(xs), m.class+" requests")
	}
	all := r.lat(clsCreate, clsDelta, clsRead, clsClose, clsHit, clsCold)
	rps := float64(r.requests()) / r.wallS
	b.report("serve_req_per_s", rps, "1/s", r.requests(), "requests completed per second, two clients")
	b.report("op_p50_ms", median(all), "ms", len(all), "op = one request of any class")
	b.set("cpu_ms_per_op", r.cpuMS/float64(r.requests()), "ms", r.requests(),
		"process CPU time (server and clients) per request")
	return nil
}

// serveSessionTraced runs an untraced phase (statsz counters, client
// latencies, Go runtime work), then a phase against a server with
// serve.Config.Tracer set (spans of the cold paths, trace overhead), then
// times the serve layer's decode and key functions on the workload's own
// bodies and replays delta scripts through Flow.OpenSession.
func serveSessionTraced(b *bench) error {
	l, pre, err := sessSetup(b, sessConfig())
	if err != nil {
		return err
	}
	half := b.seconds / 2
	mem := startMem()
	plain := sessPhase(b, l.base, pre, half)
	var gw goWork
	gw.add(mem, plain.requests())
	stz, err := statsz(b, l.base)
	if stopErr := l.stop(b.ctx); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}

	sobs := obs.NewSpanObserver(nil)
	tr := obs.New(sobs)
	cfg := sessConfig()
	cfg.Tracer = tr
	tl, tpre, err := sessSetup(b, cfg)
	if err != nil {
		return err
	}
	traced := sessPhase(b, tl.base, tpre, half)
	if err := tl.stop(b.ctx); err != nil {
		return err
	}
	if err := tr.Close(); err != nil {
		return err
	}
	plain.verify(b)
	traced.verify(b)

	fmt.Println("per-layer (replay = direct calls into each module on the prefill designs; spans = the server's own phases):")
	b.flowLayersOf(prefillSpecs(b.seed))
	sp := newSpans()
	sp.addSnapshot(sobs.Snapshot())
	b.perCall(sp, "cts.cluster_ms", "cts.build/cluster")
	b.perCall(sp, "cts.calibrate_ms", "cts.build/calibrate")
	b.perCall(sp, "core.cleanup_ms", "core.optimize/cleanup")
	b.perCall(sp, "core.pass_ms", "core.optimize/pass")

	hits, misses := stz.Counters["serve.cache_hits"], stz.Counters["serve.cache_misses"]
	if hits+misses > 0 {
		b.set("serve.cache_hit_ratio", hits/(hits+misses), "ratio", int(hits+misses), "statsz serve.cache_hits / (hits + misses)")
	}
	b.set("serve.refused", stz.Counters["serve.saturated"], "count", plain.requests(), "statsz serve.saturated (429 refusals)")
	if d, ok := stz.Latency["session_delta.cold"]; ok {
		b.set("serve.server_delta_p50_ms", d.P50MS, "ms", int(d.Count), "statsz session_delta latency p50 (server side)")
	}
	if err := b.timeDecodeAndKey(plain); err != nil {
		return err
	}
	eco, err := b.replayECO(plain.clients[0].scripts)
	if err != nil {
		return err
	}
	clientDelta := median(plain.lat(clsDelta))
	b.set("serve.delta_overhead_ms", clientDelta-eco, "ms", len(plain.lat(clsDelta)),
		fmt.Sprintf("client session_delta_p50_ms (%.4g) - core.eco_apply_ms", clientDelta))
	b.reportGo(gw, "request")
	b.reportOverhead(plain.lat(clsCreate, clsDelta, clsRead, clsClose, clsHit, clsCold),
		traced.lat(clsCreate, clsDelta, clsRead, clsClose, clsHit, clsCold), "request")
	return nil
}

func statsz(b *bench, base string) (*serve.Statsz, error) {
	req, err := http.NewRequestWithContext(b.ctx, http.MethodGet, base+"/v1/statsz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}
	defer resp.Body.Close()
	var st serve.Statsz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}
	return &st, nil
}

// timeDecodeAndKey times the serve layer's strict decoders and the flow
// key on the bodies the clients sent.
func (b *bench) timeDecodeAndKey(r *sessRun) error {
	var flows, deltas [][]byte
	for _, c := range r.clients {
		flows = append(flows, c.flows...)
		deltas = append(deltas, c.deltas...)
	}
	if len(flows) == 0 || len(deltas) == 0 {
		return fmt.Errorf("no request bodies recorded")
	}
	t0 := time.Now()
	var reqs []*serve.FlowRequest
	for _, body := range flows {
		req, err := serve.DecodeFlowRequest(body)
		if err != nil {
			return fmt.Errorf("decoding a sent flow body: %w", err)
		}
		reqs = append(reqs, req)
	}
	for _, body := range deltas {
		if _, err := serve.DecodeSessionDeltaRequest(body); err != nil {
			return fmt.Errorf("decoding a sent delta body: %w", err)
		}
	}
	n := len(flows) + len(deltas)
	b.set("serve.decode_us", ms(t0)*1e3/float64(n), "us", n, "DecodeFlowRequest / DecodeSessionDeltaRequest, mean per body")
	runner := &serve.FlowRunner{}
	t0 = time.Now()
	for _, req := range reqs {
		if _, err := runner.FlowKey(req); err != nil {
			return fmt.Errorf("keying a sent flow: %w", err)
		}
	}
	b.set("serve.key_us", ms(t0)*1e3/float64(len(reqs)), "us", len(reqs), "FlowRunner.FlowKey, mean per request")
	return nil
}

// ecoScripts is how many of client 0's scripts the ECO replay covers.
const ecoScripts = 4

// replayECO replays scripts through Flow.OpenSession and
// FlowSession.ApplyState twice: the median ApplyState time is
// core.eco_apply_ms, the STA node visits per delta must repeat exactly.
// It returns core.eco_apply_ms.
func (b *bench) replayECO(scripts []*script) (float64, error) {
	if len(scripts) > ecoScripts {
		scripts = scripts[:ecoScripts]
	}
	f := smartndr.NewFlow(nil)
	var times []float64
	var visits [2]float64
	for rep := range visits {
		var v int64
		deltas := 0
		for _, sc := range scripts {
			s, err := f.OpenSession(b.ctx, sc.spec, smartndr.SchemeSmart)
			if err != nil {
				return 0, err
			}
			primed := s.EngineStats().NodeVisits
			for _, state := range sc.states() {
				t0 := time.Now()
				_, err := s.ApplyState(b.ctx, state)
				times = append(times, ms(t0))
				if err != nil {
					return 0, err
				}
				deltas++
			}
			v += s.EngineStats().NodeVisits - primed
		}
		if deltas == 0 {
			return 0, fmt.Errorf("no deltas to replay")
		}
		visits[rep] = float64(v) / float64(deltas)
	}
	eco := median(times)
	b.set("core.eco_apply_ms", eco, "ms", len(times), "FlowSession.ApplyState per delta, median")
	b.exactPair("sta.visits_per_delta", visits[0], visits[1], "count", "dirty-region STA node visits per delta, EngineStats")
	return eco, nil
}
