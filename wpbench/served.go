package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// mix is a served workload's job generator. Jobs come in blocks of
// mixBlock jobs: exactly mixRepeats of them are picks from the small
// hot set (the read path: cache hits, or coalesced onto an identical
// job in flight) and the rest are fresh specs (the write path: a
// simulation run, persistence, a cache store). The seed orders each
// block, picks the hot specs and gives every fresh spec its own input
// seed, so the composition of any prefix is fixed and only its order
// varies.
type mix struct {
	hot   []server.JobSpec // repeated specs; input seed from the run seed
	fresh []server.JobSpec // shapes; each use gets a never-repeated input seed
}

// Three jobs in ten repeat. Most jobs are misses, so both latency
// percentiles fall among misses: a hit costs about 3 ms of persistence
// whose disk latency varies 2x between runs, and a hit-dominated median
// was too unsteady to bound.
const (
	mixRepeats = 3
	mixBlock   = 10
)

// repeatShare is the share of jobs the generator draws from the hot
// set. The share of jobs the server can deduplicate is slightly lower:
// the first submission of each hot spec is a miss (see dedupShare).
func repeatShare() float64 { return float64(mixRepeats) / mixBlock }

// hotSeed is the input seed every hot spec (and a served workload's
// direct input) uses under the run seed; fresh specs draw their input
// seeds above hotSeedSpan, so a fresh spec never equals a hot one.
const hotSeedSpan = 1_000_000

func hotSeed(seed uint64) uint64 { return 1 + splitmix(seed)%hotSeedSpan }

// sequence returns the first n jobs of the mix for seed. It is
// deterministic, and sequence(seed, k) is a prefix of sequence(seed, n)
// for k <= n.
func (m mix) sequence(seed uint64, n int) []server.JobSpec {
	rng := rand.New(rand.NewSource(int64(splitmix(seed ^ 0x6d6978))))
	hs := hotSeed(seed)
	freshBase := hotSeedSpan + 1 + splitmix(seed^0x6672657368)%(1<<40)
	freshOff := rng.Intn(len(m.fresh))
	out := make([]server.JobSpec, 0, n)
	slots := make([]bool, mixBlock)
	nFresh := 0
	for len(out) < n {
		for i := range slots {
			slots[i] = i < mixRepeats
		}
		rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		for _, isHot := range slots {
			if len(out) == n {
				break
			}
			var sp server.JobSpec
			if isHot {
				sp = m.hot[rng.Intn(len(m.hot))]
				sp.Seed = hs
			} else {
				sp = m.fresh[(freshOff+nFresh)%len(m.fresh)]
				sp.Seed = freshBase + uint64(nFresh)
				nFresh++
			}
			out = append(out, sp)
		}
	}
	return out
}

// dedupShare is the share of jobs in seq whose spec was already
// submitted earlier in seq — the jobs a correct server answers from its
// cache or by coalescing, i.e. the (hit+coalesced)/submitted the served
// phase should measure.
func dedupShare(seq []server.JobSpec) float64 {
	if len(seq) == 0 {
		return 0
	}
	seen := map[string]bool{}
	dup := 0
	for _, sp := range seq {
		fp := sp.Fingerprint()
		if seen[fp] {
			dup++
		}
		seen[fp] = true
	}
	return float64(dup) / float64(len(seq))
}

// splitmix is the SplitMix64 finalizer, used to derive independent
// sub-seeds from the run seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// liveServer is an in-process wpserved on a loopback listener.
type liveServer struct {
	stateDir string
	srv      *server.Server
	hs       *http.Server
	base     string
	served   chan error
}

// startServer builds a server over stateDir with the result cache on
// and one worker per host CPU, and serves its handler on loopback.
func startServer(stateDir string, workers int) (*liveServer, error) {
	srv, err := server.New(server.Config{Workers: workers, StateDir: stateDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		return nil, err
	}
	l := &liveServer{
		stateDir: stateDir,
		srv:      srv,
		hs:       &http.Server{Handler: srv.Handler()},
		base:     "http://" + ln.Addr().String(),
		served:   make(chan error, 1),
	}
	go func() { l.served <- l.hs.Serve(ln) }()
	return l, nil
}

// stop closes the listener, waits for the serve loop to return and
// drains the server's workers.
func (l *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	herr := l.hs.Shutdown(ctx)
	if err := <-l.served; err != http.ErrServerClosed && herr == nil {
		herr = err
	}
	if err := l.srv.Drain(ctx); err != nil {
		return err
	}
	return herr
}

// jobRecord is one served job as the client saw it.
type jobRecord struct {
	index   int
	spec    server.JobSpec
	cache   string        // hit, coalesced or miss
	submit  time.Duration // POST /jobs round trip
	latency time.Duration // submit to result bytes in hand
	wallNS  int64         // the server's simulation time (misses)
	body    []byte
	ok      bool
}

// pollInterval is how often a client asks for the state of a job it is
// waiting on.
const pollInterval = 4 * time.Millisecond

// servedPhase drives a live server with a closed loop of clients: each
// client submits its next job only once it holds the previous result.
type servedPhase struct {
	live    *liveServer
	client  *http.Client
	seq     []server.JobSpec
	tally   *tally
	mu      sync.Mutex
	records []jobRecord
	bodies  map[string][]byte // first body per fingerprint
	elapsed time.Duration
	host    float64 // median host factor over the phase
}

func newServedPhase(live *liveServer, seq []server.JobSpec, clients int, t *tally) *servedPhase {
	return &servedPhase{
		live: live,
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: clients + 2},
		},
		seq:    seq,
		tally:  t,
		bodies: map[string][]byte{},
	}
}

// run claims jobs from the sequence in order until budget has passed;
// every claimed job is completed, so the jobs run are a prefix of the
// sequence. The host factor is sampled every 50 ms on a thread of its
// own meanwhile, since the reference cannot run beside each job.
func (p *servedPhase) run(budget time.Duration, clients int) {
	var factors []float64
	quit := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			factors = append(factors, hostFactor())
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	defer func() {
		close(quit)
		sampler.Wait()
		p.host = median(factors)
	}()
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(budget)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= len(p.seq) {
					return
				}
				rec := p.do(i)
				p.mu.Lock()
				p.records = append(p.records, rec)
				p.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.client.CloseIdleConnections()
}

// do submits job i, waits for it and fetches its result. Every refusal
// (429, 503), non-clean end state or body that differs from the first
// body served for the same fingerprint fails the job.
func (p *servedPhase) do(i int) jobRecord {
	rec := jobRecord{index: i, spec: p.seq[i]}
	p.tally.attempt()
	start := time.Now()
	st, err := p.submit(rec.spec)
	rec.submit = time.Since(start)
	if err != nil {
		p.tally.fail("served job %d: %v", i, err)
		return rec
	}
	for st.State == server.StateQueued || st.State == server.StateRunning {
		time.Sleep(pollInterval)
		var cur server.Status
		if err := p.getJSON("/jobs/"+st.ID, &cur); err != nil {
			p.tally.fail("served job %d: polling %s: %v", i, st.ID, err)
			return rec
		}
		st = cur
	}
	rec.cache = st.Cache
	if st.State != server.StateDone || st.ExitCode != 0 {
		p.tally.fail("served job %d (%s): ended %s with exit %d: %s", i, st.ID, st.State, st.ExitCode, st.Error)
		return rec
	}
	body, err := p.result(st.ID)
	rec.latency = time.Since(start)
	if err != nil {
		p.tally.fail("served job %d (%s): %v", i, st.ID, err)
		return rec
	}
	rec.body, rec.wallNS = body, st.WallNS
	fp := rec.spec.Fingerprint()
	p.mu.Lock()
	first, seen := p.bodies[fp]
	if !seen {
		p.bodies[fp] = body
	}
	p.mu.Unlock()
	if seen && !bytes.Equal(first, body) {
		p.tally.fail("served job %d (%s): body differs from the first body served for its spec", i, st.ID)
		return rec
	}
	rec.ok = true
	return rec
}

func (p *servedPhase) submit(spec server.JobSpec) (server.Status, error) {
	doc, err := json.Marshal(spec)
	if err != nil {
		return server.Status{}, err
	}
	resp, err := p.client.Post(p.live.base+"/jobs", "application/json", bytes.NewReader(doc))
	if err != nil {
		return server.Status{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return server.Status{}, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return server.Status{}, fmt.Errorf("submit answered %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var st server.Status
	if err := json.Unmarshal(b, &st); err != nil {
		return server.Status{}, fmt.Errorf("decoding submit status: %w", err)
	}
	return st, nil
}

func (p *servedPhase) getJSON(path string, v any) error {
	resp, err := p.client.Get(p.live.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s answered %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (p *servedPhase) result(id string) ([]byte, error) {
	resp, err := p.client.Get(p.live.base + "/jobs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result answered %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// cacheBodies returns the distinct bodies served, by fingerprint.
func (p *servedPhase) cacheBodies() []cacheBody {
	out := make([]cacheBody, 0, len(p.bodies))
	for fp, b := range p.bodies {
		out = append(out, cacheBody{fp, b})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].fp < out[j].fp })
	return out
}

// checkAgainstDirect re-runs the first miss with server.RunDirect and
// fails unless the served body is byte-identical to the direct run's
// canonical bytes.
func (p *servedPhase) checkAgainstDirect() {
	var miss *jobRecord
	for i := range p.records {
		r := &p.records[i]
		if r.ok && r.cache == "miss" && (miss == nil || r.index < miss.index) {
			miss = r
		}
	}
	p.tally.attempt()
	if miss == nil {
		p.tally.fail("served: no successful miss to compare with a direct run")
		return
	}
	res, err := server.RunDirect(miss.spec)
	if err != nil {
		p.tally.fail("served job %d: direct run: %v", miss.index, err)
		return
	}
	want, err := server.CanonicalResult(res)
	if err != nil {
		p.tally.fail("served job %d: rendering direct result: %v", miss.index, err)
		return
	}
	if !bytes.Equal(want, miss.body) {
		p.tally.fail("served job %d: served body differs from server.RunDirect", miss.index)
	}
}
