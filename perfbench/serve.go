package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/search"
	"repro/internal/serve"
	"repro/internal/workload"
)

// Serve traffic parameters. A request's latency runs from its due time to
// its payload arriving; a refused or failed request, or one slower than
// latencyLimit, misses. A closed-loop saturation phase measures the server's
// capacity in the run itself, and the open-loop phases then run at fixed
// fractions of it, so they load a faster or slower server equally hard.
// Each measured phase sends a fixed number of requests per second of the
// run, not requests for a fixed time, so a seed sends the same requests
// whatever the server's speed, and a faster server finishes sooner.
const (
	latencyLimit = 250 * time.Millisecond
	warmRate     = 30.0 // requests per second in the warm-up and the layer probe
	warmShare    = 0.05 // the warm-up's share of the run
	// Requests per second of the run in each measured phase.
	satPerSecond  = 100
	lowPerSecond  = 15
	highPerSecond = 30
	stepPerSecond = 6   // per ladder step
	lowLoad       = 0.3 // the low phase's rate as a fraction of capacity
	highLoad      = 0.6
	// maxQueue is claired's admission queue and job history: deep enough
	// that an overloaded ladder step shows as a growing backlog before it is
	// refused, and that a finished job is still there when it is fetched.
	maxQueue = 4096
)

// Request kinds of the serve mix, with their shares of the traffic. The
// shares are assumptions, not measurements: no trace of real claired traffic
// exists yet. See README.md for the reasoning behind each.
var serveMix = []struct {
	kind  string
	share float64
}{
	{"repeat", 0.33}, // paper-space explore drawn from a small fixed pool
	{"fresh", 0.25},  // paper-space explore over a new model subset and slack
	{"fine", 0.03},   // single-model fine explore: bypasses the cache
	{"staged", 0.10}, // staged-fidelity paper-space explore
	{"search", 0.07}, // budgeted anneal or genetic search on fine
	{"sweep", 0.22},  // slack or tau sweep
}

// serveEnv is an in-process claired on a loopback listener, the traffic
// generator feeding it and a client limited to nproc connections.
type serveEnv struct {
	gen    *generator
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
}

// newTraffic times building every net and the two spaces the traffic names,
// as claired does for each request, and builds the seeded traffic generator
// with its pool of repeated bodies.
func (b *bench) newTraffic() (*generator, error) {
	start := time.Now()
	names := workload.Names()
	for _, n := range names {
		if _, err := workload.ByName(n); err != nil {
			return nil, err
		}
	}
	built := time.Now()
	for _, sp := range []string{"paper", "fine"} {
		if _, err := hw.ParseSpaceWith(sp, hw.Default()); err != nil {
			return nil, err
		}
	}
	b.setLayer("workload.build_s", "s", built.Sub(start).Seconds())
	b.setLayer("hw.space_build_s", "s", time.Since(built).Seconds())
	return newGenerator(b.seed, names), nil
}

// startServe is the serve workload's set-up: it starts claired and waits
// until /healthz answers. claired builds a request's nets and space when the
// request arrives, so it needs nothing built ahead.
func (b *bench) startServe(gen *generator) (*serveEnv, error) {
	srv := serve.New(serve.ManagerConfig{Workers: b.nproc, EvalWorkers: b.nproc, MaxQueue: maxQueue, History: maxQueue})
	hs := httptest.NewServer(srv.Handler())
	env := &serveEnv{gen: gen, srv: srv, hs: hs,
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: b.nproc, MaxIdleConnsPerHost: b.nproc}}}
	resp, err := env.client.Get(hs.URL + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// close stops the server and waits for its workers.
func (e *serveEnv) close() {
	e.client.CloseIdleConnections()
	e.hs.Close()
	e.srv.Close()
}

// request is one generated request: its endpoint, body and due offset.
type request struct {
	kind, path string
	body       []byte
	fresh      bool
	verify     bool
	due        time.Duration
}

// generator draws the seeded traffic mix. It only emits requests the
// library can answer: a model set with no configuration meeting every
// model's latency slack on the paper space makes explore and tau-sweep jobs
// fail by design, so such draws are redrawn.
type generator struct {
	rng   *rand.Rand
	names []string
	// decks deal model names per request kind from all 19 nets in a fixed
	// order, so every phase draws each net about equally often, and the
	// single-net kinds (fine, search, slack sweep) name the same nets in the
	// same order at every seed: seeds change when those requests arrive, not
	// how heavy their nets are.
	decks map[string][]string
	pool  [][]byte
	seen  map[string]bool
	// ev caches the paper-space summaries the feasibility filter reads.
	ev    *eval.Evaluator
	paper hw.SpaceSpec
}

func newGenerator(seed int64, names []string) *generator {
	g := &generator{rng: rand.New(rand.NewSource(seed)), names: names, seen: make(map[string]bool),
		decks: make(map[string][]string), ev: eval.New(eval.Options{Workers: 1}), paper: hw.PaperSpace()}
	for i := 0; i < 12; i++ {
		g.pool = append(g.pool, g.paperBody("repeat", 1+i%3, true, ""))
	}
	return g
}

// models deals k distinct model names from the kind's deck.
func (g *generator) models(kind string, k int) []string {
	deck := g.decks[kind]
	if len(deck) < k {
		deck = append([]string(nil), g.names...)
	}
	g.decks[kind] = deck[k:]
	return deck[:k:k]
}

// slack draws a latency slack with three decimals, so most draws are new.
func (g *generator) slack() *float64 {
	v := float64(50+g.rng.Intn(451)) / 1000
	return &v
}

// feasible reports whether the paper space has a configuration meeting
// every named model's slack.
func (g *generator) feasible(names []string, slack *float64) bool {
	models := make([]*workload.Model, len(names))
	for i, n := range names {
		models[i], _ = workload.ByName(n)
	}
	cons := dse.DefaultConstraints()
	if slack != nil {
		cons.LatencySlack = *slack
	}
	_, err := dse.ExploreSpace(models, g.paper, cons, g.ev, nil)
	return err == nil
}

// feasibleModels draws k models (and a slack, when withSlack) that pass the
// feasibility filter, falling back to one model, which always passes.
func (g *generator) feasibleModels(kind string, k int, withSlack bool) ([]string, *float64) {
	for {
		names := g.models(kind, k)
		var slack *float64
		if withSlack {
			slack = g.slack()
		}
		if k == 1 || g.feasible(names, slack) {
			return names, slack
		}
		k--
	}
}

// paperBody draws a paper-space explore over k models.
func (g *generator) paperBody(kind string, k int, withSlack bool, fidelity string) []byte {
	names, slack := g.feasibleModels(kind, k, withSlack)
	req := serve.ExploreRequest{Models: names, Fidelity: fidelity}
	if slack != nil {
		req.Constraints = &serve.ConstraintsSpec{LatencySlack: slack}
	}
	b, _ := json.Marshal(req)
	return b
}

func (g *generator) exploreBody(req serve.ExploreRequest) []byte {
	b, _ := json.Marshal(req)
	return b
}

// next draws one request of the given kind.
func (g *generator) next(kind string) request {
	r := request{kind: kind, path: "/v1/explore"}
	switch kind {
	case "repeat":
		r.body = g.pool[g.rng.Intn(len(g.pool))]
	case "fresh":
		r.body = g.paperBody(kind, 1+g.rng.Intn(3), true, "")
	case "fine":
		r.body = g.exploreBody(serve.ExploreRequest{Models: g.models(kind, 1), Space: "fine"})
	case "staged":
		r.body = g.paperBody(kind, 1+g.rng.Intn(2), false, "staged")
	case "search":
		strategy := []string{"anneal", "genetic"}[g.rng.Intn(2)]
		r.body = g.exploreBody(serve.ExploreRequest{Models: g.models(kind, 1), Space: "fine",
			Search: strategy, Budget: 256, Seed: int64(1 + g.rng.Intn(4))})
	case "sweep":
		r.path = "/v1/sweep"
		var req serve.SweepRequest
		if g.rng.Intn(6) == 0 {
			models, _ := g.feasibleModels("tau", 2+g.rng.Intn(3), false)
			req = serve.SweepRequest{Kind: "tau", Models: models, Values: []float64{0.3, 0.5}}
		} else {
			req = serve.SweepRequest{Kind: "slack", Model: g.models("slack", 1)[0], Values: []float64{*g.slack(), *g.slack()}}
		}
		r.body, _ = json.Marshal(req)
	}
	key := r.path + string(r.body)
	r.fresh = !g.seen[key]
	g.seen[key] = true
	r.verify = g.rng.Intn(6) == 0
	return r
}

// ladderLoads are the goodput ladder's rates as fractions of capacity.
// Every step runs; goodput comes from the steps below the first that misses
// latencyLimit or whose backlog grows.
var ladderLoads = []float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

// schedule draws rate*d requests with due times spread uniformly at random
// over d: a Poisson stream conditioned on its count.
func (g *generator) schedule(rate float64, d time.Duration) []request {
	return g.draw(int(rate*d.Seconds()), d)
}

// atRate draws n requests due at the given rate.
func (g *generator) atRate(n int, rate float64) []request {
	return g.draw(n, time.Duration(float64(n)/rate*float64(time.Second)))
}

// draw draws n requests with due times spread uniformly at random over d.
// Each kind gets its exact share of the n in seeded order, so seeds differ in
// order and bodies, not in how much heavy work a phase holds.
func (g *generator) draw(n int, d time.Duration) []request {
	kinds := make([]string, 0, n)
	for i, m := range serveMix {
		k := int(m.share*float64(n) + 0.5)
		if i == len(serveMix)-1 {
			k = n - len(kinds)
		}
		for j := 0; j < k && len(kinds) < n; j++ {
			kinds = append(kinds, m.kind)
		}
	}
	g.rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = g.rng.Float64()
	}
	sort.Float64s(dues)
	out := make([]request, n)
	for i := range out {
		out[i] = g.next(kinds[i])
		out[i].due = time.Duration(dues[i] * float64(d))
	}
	return out
}

// outcome is what one sent request observed.
type outcome struct {
	req     request
	latency time.Duration // due time to payload
	lag     time.Duration // how late the generator sent it
	execMS  float64       // the job's elapsed_ms
	payload []byte        // the job's result, for verification
	err     error
}

// phase is one open-loop stretch at a fixed rate.
type phase struct {
	outs      []outcome
	depthMean float64
	growing   bool
	closed    bool // sent by a closed loop
	wall      time.Duration
	cpu       time.Duration // process CPU time, server and client together
	fair      float64       // wall seconds with the host's steal removed
}

// runPhase sends reqs and waits for every reply. With clients 0 it is an
// open loop that sends each request at its due time; otherwise that many
// senders each send the next request as soon as their last one is answered,
// and a request is due when it is sent. A sampler reads the server's queue
// depth every 5 ms to detect a growing backlog.
func (b *bench) runPhase(env *serveEnv, reqs []request, clients int) *phase {
	// Each phase starts from a collected heap, so the heap's peak does not
	// depend on where in a phase an earlier garbage collection fell.
	runtime.GC()
	ph := &phase{outs: make([]outcome, len(reqs)), closed: clients > 0}
	mgr := env.srv.Manager()
	stop := make(chan struct{})
	var depths []int
	var samplerDone sync.WaitGroup
	samplerDone.Add(1)
	go func() {
		defer samplerDone.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				depths = append(depths, mgr.QueueDepth())
			}
		}
	}()
	start, cpu, host := time.Now(), cpuTime(), readHostTicks()
	var wg sync.WaitGroup
	if clients > 0 {
		var next atomic.Int64
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
					ph.outs[i] = b.send(env, reqs[i], time.Now())
				}
			}()
		}
	}
	for i := 0; clients == 0 && i < len(reqs); i++ {
		due := start.Add(reqs[i].due)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ph.outs[i] = b.send(env, reqs[i], due)
		}(i)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.cpu = cpuTime() - cpu
	ph.fair = unstolen(ph.wall, host, readHostTicks())
	close(stop)
	samplerDone.Wait()
	if n := len(depths); n > 0 {
		first, second := 0.0, 0.0
		for i, d := range depths {
			if i < n/2 {
				first += float64(d)
			} else {
				second += float64(d)
			}
			ph.depthMean += float64(d)
		}
		ph.depthMean /= float64(n)
		ph.growing = n >= 4 && second/float64(n-n/2) > first/float64(n/2)+4
	}
	return ph
}

// send submits one async request, waits on the job's done channel and
// fetches its payload once.
func (b *bench) send(env *serveEnv, r request, due time.Time) outcome {
	out := outcome{req: r, lag: time.Since(due)}
	req := b.nextReq()
	root := b.tr.begin("bench.request."+r.kind, -1, req)
	defer b.tr.end(root)
	sp := b.tr.begin("serve.submit", root, req)
	resp, err := env.client.Post(env.hs.URL+r.path, "application/json", bytes.NewReader(r.body))
	var sub struct {
		JobID string `json:"job_id"`
	}
	if err == nil {
		if resp.StatusCode != http.StatusAccepted {
			err = fmt.Errorf("%s %s: %s", r.path, r.body, resp.Status)
		} else {
			err = json.NewDecoder(resp.Body).Decode(&sub)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	b.tr.end(sp)
	if err != nil {
		out.err = err
		return out
	}
	job, ok := env.srv.Manager().Get(sub.JobID)
	if !ok {
		out.err = fmt.Errorf("job %s unknown right after submission", sub.JobID)
		return out
	}
	sp = b.tr.begin("serve.job", root, req)
	timeout := time.NewTimer(60 * time.Second)
	select {
	case <-job.Done():
	case <-timeout.C:
		out.err = fmt.Errorf("job %s not done after 60 s", sub.JobID)
	}
	timeout.Stop()
	b.tr.end(sp)
	if out.err != nil {
		return out
	}
	sp = b.tr.begin("serve.fetch", root, req)
	defer b.tr.end(sp)
	resp, err = env.client.Get(env.hs.URL + "/v1/jobs/" + sub.JobID)
	if err != nil {
		out.err = err
		return out
	}
	defer resp.Body.Close()
	var st struct {
		State     string          `json:"state"`
		Error     string          `json:"error"`
		Result    json.RawMessage `json:"result"`
		ElapsedMS float64         `json:"elapsed_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		out.err = err
		return out
	}
	out.latency = time.Since(due)
	if st.State != "done" {
		out.err = fmt.Errorf("job %s %s: %s", sub.JobID, st.State, st.Error)
		return out
	}
	out.execMS = st.ElapsedMS
	if r.verify {
		out.payload = st.Result
	}
	return out
}

// latencies returns the latencies in ms of the phase's answered requests.
func (ph *phase) latencies() []float64 {
	var ms []float64
	for _, o := range ph.outs {
		if o.err == nil {
			ms = append(ms, float64(o.latency)/1e6)
		}
	}
	return ms
}

// meetsLimit reports whether the phase's tail, with every unanswered request
// counted as a miss, is within latencyLimit and its backlog did not grow, and
// how many replies were on time.
func (ph *phase) meetsLimit() (bool, int) {
	ms := make([]float64, len(ph.outs))
	onTime := 0
	for i, o := range ph.outs {
		ms[i] = math.Inf(1)
		if o.err == nil {
			ms[i] = float64(o.latency) / 1e6
			if o.latency <= latencyLimit {
				onTime++
			}
		}
	}
	tl, _ := tail(ms)
	return tl <= float64(latencyLimit)/1e6 && !ph.growing, onTime
}

// saturation is the closed-loop phase that measures the server's capacity:
// 2*nproc senders keep claired's workers busy, and capacity is replies per
// second of wall time with the host's steal removed. The phase runs as
// satBlocks stretches spread over the run, so that capacity averages over
// the host's faster and slower spells of a few seconds each.
type saturation struct {
	blocks []*phase
}

const satBlocks = 4

// run sends one block of n requests, each block with exact kind shares.
func (s *saturation) run(b *bench, env *serveEnv, n int) {
	s.blocks = append(s.blocks, b.runPhase(env, env.gen.draw(n, 0), 2*b.nproc))
}

// capacity is the replies per unstolen second over the blocks run so far.
func (s *saturation) capacity() float64 {
	n, sec := 0, 0.0
	for _, ph := range s.blocks {
		n += len(ph.outs)
		sec += ph.fair
	}
	return float64(n) / sec
}

// climb runs the goodput ladder: open-loop steps at ladderLoads of capacity.
// It returns the on-time reply rate of the highest step below the first
// that misses the limit (0 if the first does) and every step.
func (b *bench) climb(env *serveEnv, capacity float64, n int) (goodput float64, steps []*phase) {
	passing := true
	for _, load := range ladderLoads {
		rate := load * capacity
		ph := b.runPhase(env, env.gen.atRate(n, rate), 0)
		steps = append(steps, ph)
		ok, onTime := ph.meetsLimit()
		ms := ph.latencies()
		tl, label := tail(ms)
		info("ladder %.1f/s: %d requests, p50 %.3f ms, %s %.3f ms, %d on time, queue depth mean %.2f, meets limit %v",
			rate, len(ph.outs), median(ms), label, tl, onTime, ph.depthMean, ok)
		passing = passing && ok
		if passing {
			goodput = float64(onTime) / ph.wall.Seconds()
		}
	}
	return goodput, steps
}

// runServe is the serve workload: seeded traffic to an in-process claired: a
// warm-up, then open-loop low and high phases and the goodput ladder at
// fixed fractions of the capacity measured by the saturation blocks that
// run between them.
func runServe(b *bench, exp *expected) (e2e, error) {
	gen, err := b.newTraffic()
	if err != nil {
		return e2e{}, err
	}
	env, setupS, err := timeSetup(func() (*serveEnv, error) { return b.startServe(gen) }, (*serveEnv).close)
	if err != nil {
		return e2e{}, err
	}
	defer env.close()

	count := func(perSecond float64) int { return int(perSecond * b.dur.Seconds()) }
	// The warm-up phase fills the shared cache with the repeat pool's
	// entries, so the measured phases do not start cold.
	warm := b.runPhase(env, gen.schedule(warmRate, time.Duration(warmShare*float64(b.dur))), 0)
	// The open loops' rates come from the saturation blocks run before them.
	var sat saturation
	block := count(satPerSecond) / satBlocks
	sat.run(b, env, block)
	lowRate := lowLoad * sat.capacity()
	low := b.runPhase(env, gen.atRate(count(lowPerSecond), lowRate), 0)
	sat.run(b, env, block)
	highRate := highLoad * sat.capacity()
	high := b.runPhase(env, gen.atRate(count(highPerSecond), highRate), 0)
	sat.run(b, env, block)
	goodput, steps := b.climb(env, sat.capacity(), count(stepPerSecond))
	sat.run(b, env, block)
	capacity := sat.capacity()

	cpu, sent := low.cpu+high.cpu, len(low.outs)+len(high.outs)
	var satMS []float64
	for _, ph := range sat.blocks {
		cpu += ph.cpu
		sent += len(ph.outs)
		satMS = append(satMS, ph.latencies()...)
		info("saturation block: %d requests from %d senders in %.3f s, %.2f/s with host steal removed",
			len(ph.outs), 2*b.nproc, ph.wall.Seconds(), float64(len(ph.outs))/ph.fair)
	}
	cpuMS := float64(cpu) / 1e6 / float64(sent)
	satTail, satLabel := tail(satMS)
	info("saturation: p50 %.3f ms, %s %.3f ms; capacity %.2f/s with host steal removed", median(satMS), satLabel, satTail, capacity)
	phases := append(append([]*phase{warm, low, high}, sat.blocks...), steps...)
	b.checkServe(env, phases)

	byKind := make(map[string][]float64)
	for _, ph := range []*phase{low, high} {
		for _, o := range ph.outs {
			if o.err == nil {
				byKind[o.req.kind] = append(byKind[o.req.kind], float64(o.latency)/1e6)
			}
		}
	}
	for _, m := range serveMix {
		ms := byKind[m.kind]
		tl, label := tail(ms)
		info("serve kind %-6s: %d replies in the low and high phases, p50 %.3f ms, %s %.3f ms", m.kind, len(ms), median(ms), label, tl)
	}
	lowMS, highMS := low.latencies(), high.latencies()
	lowTail, lowLabel := tail(lowMS)
	highTail, highLabel := tail(highMS)
	info("serve_low_p50_ms %.3f ms, serve_low_tail_ms %.3f ms (%s of %d)", median(lowMS), lowTail, lowLabel, len(low.outs))
	info("serve_high_p50_ms %.3f ms, serve_high_tail_ms %.3f ms (%s of %d)", median(highMS), highTail, highLabel, len(high.outs))
	info("serve_goodput_rps %.2f 1/s (limit %v); capacity %.2f/s, low %.1f/s, high %.1f/s; CPU per request in the saturation, low and high phases %.3f ms",
		goodput, latencyLimit, capacity, lowRate, highRate, cpuMS)
	return e2e{setupS: setupS, cpuMS: cpuMS, throughput: capacity, wallP50MS: median(lowMS), wallTailMS: highTail}, nil
}

// checkServe counts every sent request as one operation, failing it on an
// error or a sampled payload that differs from the direct library call,
// prints the traffic mix and generator lag, and in a traced run records the
// serve layer's metrics.
func (b *bench) checkServe(env *serveEnv, phases []*phase) {
	var all []outcome
	var lags, execMS, httpMS []float64
	for _, ph := range phases {
		all = append(all, ph.outs...)
		// A closed loop sends each request when it is due, so only the open
		// loops can show the generator running late.
		for _, o := range ph.outs {
			if !ph.closed {
				lags = append(lags, float64(o.lag)/1e6)
			}
		}
	}
	kinds := make(map[string]int)
	fresh := 0
	for _, o := range all {
		kinds[o.req.kind]++
		if o.req.fresh {
			fresh++
		}
		err := o.err
		if err == nil && o.payload != nil {
			err = verifyPayload(o.req, o.payload)
		}
		b.op(err)
		if o.err == nil {
			execMS = append(execMS, o.execMS)
			httpMS = append(httpMS, float64(o.latency)/1e6-o.execMS)
		}
	}
	n := float64(len(all))
	info("serve: %d requests; mix: fresh %.1f%%, repeat %.1f%%, fine %.1f%%, staged %.1f%%, search %.1f%%, sweep %.1f%%",
		len(all), 100*float64(fresh)/n, 100*float64(kinds["repeat"])/n, 100*float64(kinds["fine"])/n,
		100*float64(kinds["staged"])/n, 100*float64(kinds["search"])/n, 100*float64(kinds["sweep"])/n)
	lagTail, lagLabel := tail(lags)
	info("generator lag %s %.3f ms", lagLabel, lagTail)
	if b.tr == nil {
		return
	}
	met := env.srv.Manager().Metrics()
	es := env.srv.Manager().Evaluator().Stats()
	acc, coal := float64(met.Accepted.Load()), float64(met.Coalesced.Load())
	b.setLayer("serve.accepted", "count", acc)
	b.setLayer("serve.coalesced", "count", coal)
	b.setLayer("serve.rejected", "count", float64(met.Rejected.Load()))
	b.setLayer("serve.failed", "count", float64(met.Failed.Load()))
	b.setLayer("serve.coalesce_ratio", "ratio", coal/max(1, acc+coal))
	depth, wall := 0.0, 0.0
	for _, ph := range phases {
		depth += ph.depthMean * ph.wall.Seconds()
		wall += ph.wall.Seconds()
	}
	b.setLayer("serve.queue_depth_mean", "jobs", depth/wall)
	b.setLayer("serve.queue_wait_ms", "ms", 1000*(depth/wall)/(n/wall))
	b.setLayer("serve.exec_ms", "ms", median(execMS))
	b.setLayer("serve.http_ms", "ms", median(httpMS))
	b.setLayer("serve.cache_entries", "count", float64(es.Entries))
	b.setLayer("serve.cache_hit_ratio", "ratio", es.HitRate())
	b.setLayer("bench.gen_lag_ms", "ms", lagTail)
	setEvalLayer(b, es)
}

// verifyPayload recomputes a served job with a direct library call on a
// fresh engine and compares the JSON byte for byte.
func verifyPayload(r request, payload []byte) error {
	var want any
	if r.path == "/v1/sweep" {
		var req serve.SweepRequest
		if err := json.Unmarshal(r.body, &req); err != nil {
			return err
		}
		o := core.DefaultOptions()
		o.Catalogue = hw.Default()
		o.Evaluator = eval.New(eval.Options{})
		out := serve.SweepResult{Kind: req.Kind}
		if req.Kind == "tau" {
			models := make([]*workload.Model, len(req.Models))
			for i, name := range req.Models {
				models[i], _ = workload.ByName(name)
			}
			pts, err := core.SweepTau(models, o, req.Values)
			if err != nil {
				return err
			}
			for _, p := range pts {
				out.Tau = append(out.Tau, serve.TauPoint{Tau: p.Tau, Subsets: p.Subsets,
					MeanBenefit: p.MeanBenefit, MaxSubsetSize: p.MaxSubsetSize})
			}
		} else {
			m, err := workload.ByName(req.Model)
			if err != nil {
				return err
			}
			pts, err := core.SweepSlack(m, o, req.Values)
			if err != nil {
				return err
			}
			for _, p := range pts {
				out.Slack = append(out.Slack, serve.SlackPoint{Slack: p.Slack, AreaMM2: p.AreaMM2,
					LatencyMS: p.LatencyMS, Feasible: p.Feasible})
			}
		}
		want = out
	} else {
		res, err := directExplore(r.body)
		if err != nil {
			return err
		}
		want = res
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(bytes.TrimSpace(payload), wantJSON) {
		return fmt.Errorf("served %s %s differs from the direct call:\nserved: %s\ndirect: %s", r.path, r.body, payload, wantJSON)
	}
	return nil
}

// directExplore runs an explore request body through the library directly.
func directExplore(body []byte) (serve.ExploreResult, error) {
	var req serve.ExploreRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return serve.ExploreResult{}, err
	}
	models := make([]*workload.Model, len(req.Models))
	for i, name := range req.Models {
		m, err := workload.ByName(name)
		if err != nil {
			return serve.ExploreResult{}, err
		}
		models[i] = m
	}
	spaceName := req.Space
	if spaceName == "" {
		spaceName = "paper"
	}
	space, err := hw.ParseSpaceWith(spaceName, hw.Default())
	if err != nil {
		return serve.ExploreResult{}, err
	}
	cons := dse.DefaultConstraints()
	if c := req.Constraints; c != nil && c.LatencySlack != nil {
		cons.LatencySlack = *c.LatencySlack
	}
	var fo *dse.FidelityOptions
	if req.Fidelity == "staged" {
		o := core.DefaultOptions()
		o.Catalogue = hw.Default()
		fo = &dse.FidelityOptions{Mode: dse.FidelityStaged, Params: o.FidelityParams()}
	}
	ev := eval.New(eval.Options{})
	if req.Search != "" {
		spec, err := search.ParseSpec(req.Search)
		if err != nil {
			return serve.ExploreResult{}, err
		}
		opt, err := search.New(spec, search.Options{Seed: req.Seed, Evaluator: ev, Fidelity: fo})
		if err != nil {
			return serve.ExploreResult{}, err
		}
		res, tr, err := opt.Run(context.Background(), models, space, cons, req.Budget)
		if err != nil {
			return serve.ExploreResult{}, err
		}
		return serve.ExploreResultOf(res, &tr), nil
	}
	res, err := dse.ExploreSpace(models, space, cons, ev, &dse.ExploreOptions{Fidelity: fo})
	if err != nil {
		return serve.ExploreResult{}, err
	}
	return serve.ExploreResultOf(res, nil), nil
}
