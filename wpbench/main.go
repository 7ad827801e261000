// Command wpbench is the repository's benchmark: simulation speed per
// wrong-path technique, wpserved job latency, and (traced) the host
// time of every simulator layer. It drives the simulator only through
// its public surface — sim.NewFunctionalSource, sim.NewSession,
// sim.Config.PolicyFactory and server.Handler over loopback HTTP — and
// prints one JSON record as the last line of standard output. See
// README.md for the workloads and metrics.
//
//	go run . --workload gap-bfs --seed 1 --seconds 35 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/wrongpath"
)

// workload is one benchmark workload: an input the direct phase
// simulates under every technique, and a job mix the served phase
// submits to wpserved. The workloads differ in input and in how the
// run's seconds are split between the two phases.
type workload struct {
	name string
	// direct is the simulated input (suite, bench and shape); its input
	// seed comes from the run seed.
	direct server.JobSpec
	// maxInsts caps each direct simulation; 0 keeps the workload's own
	// budget.
	maxInsts uint64
	// directShare is the share of the run's seconds given to the direct
	// phase; the served phase gets the rest.
	directShare float64
	mix         mix
}

// cross pairs every workload shape with every technique in kinds.
func cross(kinds []wrongpath.Kind, shapes ...server.JobSpec) []server.JobSpec {
	var out []server.JobSpec
	for _, sp := range shapes {
		for _, k := range kinds {
			sp.WP = k.String()
			out = append(out, sp)
		}
	}
	return out
}

var (
	all     = wrongpath.Kinds()
	bfs512  = server.JobSpec{Suite: "gap", Bench: "bfs", N: 512, Degree: 4}
	bfs1024 = server.JobSpec{Suite: "gap", Bench: "bfs", N: 1024, Degree: 4}
	pr512   = server.JobSpec{Suite: "gap", Bench: "pr", N: 512, Degree: 4}
)

func specint(bench string) server.JobSpec {
	return server.JobSpec{Suite: "specint", Bench: bench, Scale: 0.05}
}

func specfp(bench string, scale float64) server.JobSpec {
	return server.JobSpec{Suite: "specfp", Bench: bench, Scale: scale}
}

var benchWorkloads = []workload{
	{
		name:        "gap-bfs",
		direct:      server.JobSpec{Suite: "gap", Bench: "bfs", N: 1 << 17, Degree: 8},
		maxInsts:    200_000,
		directShare: 0.6,
		mix: mix{
			hot:   append(cross([]wrongpath.Kind{wrongpath.Conv, wrongpath.WPEmul}, bfs1024), cross([]wrongpath.Kind{wrongpath.NoWP, wrongpath.InstRec}, bfs512)...),
			fresh: cross(all, bfs512, bfs1024),
		},
	},
	{
		name:        "specfp-conv2d",
		direct:      specfp("conv2d", 2.0),
		maxInsts:    400_000,
		directShare: 0.6,
		mix: mix{
			hot:   append(cross([]wrongpath.Kind{wrongpath.Conv, wrongpath.WPEmul}, specfp("conv2d", 0.4)), cross([]wrongpath.Kind{wrongpath.NoWP, wrongpath.ConvResolve}, specfp("dotprod", 0.1))...),
			fresh: cross(all, specfp("conv2d", 0.4), specfp("stencil1d", 0.1), specfp("dotprod", 0.1), specfp("raysphere", 0.1)),
		},
	},
	{
		name:        "served-mix",
		direct:      bfs1024,
		directShare: 0.4,
		mix: mix{
			hot: append(cross(all, bfs1024), cross([]wrongpath.Kind{wrongpath.Conv}, specint("hashloop"))...),
			// No nowp misses (all[0] is nowp): at 15–30 ms their latency
			// is mostly the job's fixed persistence cost, whose disk
			// latency varies 2x between runs.
			fresh: cross(all[1:], bfs1024, pr512, specint("hashloop"), specint("blocksort"), specint("hashtab"), specint("bitboard")),
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// A run sets up (builds the direct input, starts a server) at least
// minSetups times, and more while it has spent less than setupBudget
// on it, up to maxSetups; setup_s is the median.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = time.Second
)

// maxJobs bounds the served job sequence; a run that exhausts it stops
// submitting early.
const maxJobs = 20_000

// tally counts the operations a run attempted and the ones that failed.
// A failure is reported on standard error and makes the run incorrect.
type tally struct {
	mu        sync.Mutex
	log       io.Writer
	attempted int
	failed    int
}

func (t *tally) attempt() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.failed++
	t.mu.Unlock()
	fmt.Fprintf(t.log, "wpbench: FAIL "+format+"\n", args...)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the benchmark's result line.
type record struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one run's arguments.
type options struct {
	seed    uint64
	seconds int
	traced  bool
	workdir string
	workers int // server workers and served clients: one per host CPU
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (gap-bfs, specfp-conv2d, served-mix)")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "seconds to measure")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for the run's scratch state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "wpbench: need --workload gap-bfs|specfp-conv2d|served-mix, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, workdir: *workdir, workers: runtime.NumCPU()}

	meta, _ := json.Marshal(struct {
		hostInfo
		Workload    string `json:"workload"`
		Seed        uint64 `json:"seed"`
		Seconds     int    `json:"seconds"`
		Trace       bool   `json:"trace"`
		WarmupInsts int    `json:"warmup_insts"`
	}{readHostInfo(), w.name, opt.seed, opt.seconds, opt.traced, 0})
	fmt.Fprintf(stderr, "wpbench: host %s\n", meta)

	rec, err := measure(w, opt, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "wpbench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(stderr, "wpbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// measure runs one workload: set-up, the direct phase, the served
// phase, the correctness checks after them, and (traced) the isolated
// leaf timings. An error means the run could not be set up at all.
func measure(w workload, opt options, log io.Writer) (*record, error) {
	t := &tally{log: log}
	allocs := newAllocCounter()
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opt.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set up several times; keep the last input and server. Each set-up
	// is host-normalized by a reference run just before it.
	spec := w.direct
	spec.Seed = hotSeed(opt.seed)
	var builds, starts []float64
	var in *simInput
	var srv *liveServer
	setupStart := time.Now()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(setupStart) < setupBudget); i++ {
		host := hostFactor()
		built, build, err := buildInput(spec, w.maxInsts)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		l, err := startServer(filepath.Join(dir, fmt.Sprintf("state-%d", i)), opt.workers)
		if err != nil {
			return nil, fmt.Errorf("starting server: %w", err)
		}
		builds = append(builds, build.Seconds()/host)
		starts = append(starts, time.Since(start).Seconds()/host)
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, fmt.Errorf("stopping server: %w", err)
			}
		}
		in, srv = built, l
	}

	budget := time.Duration(opt.seconds) * time.Second
	directBudget := time.Duration(float64(budget) * w.directShare)
	d := newDirectPhase(in, allocs, t)
	d.run(directBudget, opt.traced)
	seq := w.mix.sequence(opt.seed, maxJobs)
	sp := newServedPhase(srv, seq, opt.workers, t)
	sp.run(budget-directBudget, opt.workers)
	if err := srv.stop(); err != nil {
		t.fail("stopping server: %v", err)
	}

	// Restart over the populated state directory, then check a served
	// miss against a direct run — both outside the timed window.
	start := time.Now()
	again, err := server.New(server.Config{Workers: opt.workers, StateDir: srv.stateDir})
	restart := time.Since(start)
	if err != nil {
		t.fail("restarting server: %v", err)
	} else {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		if err := again.Drain(ctx); err != nil {
			t.fail("draining restarted server: %v", err)
		}
		cancel()
	}
	sp.checkAgainstDirect()

	summarize(log, w, d, sp)
	m := map[string]metric{}
	if opt.traced {
		layers, served := map[string]metric{}, map[string]metric{}
		layerMetrics(layers, d, sp.cacheBodies(), t, dir)
		serverMetrics(served, sp, restart)
		normalizeTimes(layers, d.host())
		normalizeTimes(served, sp.host)
		maps.Copy(m, layers)
		maps.Copy(m, served)
		m["host.direct_factor"] = metric{d.host(), "x"}
		m["host.served_factor"] = metric{sp.host, "x"}
		m["server.start_ms"] = metric{1000 * median(starts), "ms"} // normalized per set-up
	} else {
		endToEnd(m, d, sp, median(builds))
	}
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.fail("metric %s could not be measured", name)
			m[name] = metric{0, v.Unit}
		}
	}
	return &record{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// endToEnd fills the metrics a user of the simulator and the service
// sees, from the untraced run. Speeds and times are host-normalized.
func endToEnd(m map[string]metric, d *directPhase, sp *servedPhase, setupS float64) {
	m["setup_s"] = metric{setupS, "s"}
	var allocB, insts, peakB uint64
	for _, k := range d.kinds {
		var mips []float64
		for _, s := range d.plain[k] {
			mips = append(mips, s.mips())
			allocB += s.allocB
			insts += s.insts
			peakB = max(peakB, s.liveB)
		}
		m[k.String()+".mips"] = metric{median(mips), "Minst/s"}
	}
	m["alloc_b_per_inst"] = metric{ratio(float64(allocB), float64(insts)), "B/inst"}
	m["peak_heap_mb"] = metric{float64(peakB) / (1 << 20), "MiB"}
	var lat []float64
	for _, r := range sp.records {
		if r.ok {
			lat = append(lat, float64(r.latency.Nanoseconds())/1e6/sp.host)
		}
	}
	m["jobs_per_s"] = metric{float64(len(lat)) / sp.elapsed.Seconds() * sp.host, "1/s"}
	m["job_p50_ms"] = metric{quantile(lat, 0.5), "ms"}
	m["job_p90_ms"] = metric{quantile(lat, 0.9), "ms"}
}

// layerMetrics fills the per-layer metrics of the direct phase and the
// isolated leaf timings, from the traced run. bodies are the served
// phase's canonical bodies; the result cache timing adds the direct
// phase's own.
func layerMetrics(m map[string]metric, d *directPhase, bodies []cacheBody, t *tally, dir string) {
	type medians struct{ total, fe, wp, core, begin, plainCPU, plainRun float64 }
	med := map[wrongpath.Kind]medians{}
	var refills, refillInsts float64
	for _, k := range d.kinds {
		var total, fe, wp, core, begin []float64
		for _, s := range d.splits[k] {
			total = append(total, float64(s.total))
			fe = append(fe, float64(s.frontend))
			wp = append(wp, float64(s.policy))
			core = append(core, float64(s.core()))
			begin = append(begin, ratio(float64(s.policy), float64(s.begins)))
			refills += float64(s.refills)
		}
		var cpu, runWall []float64
		for _, s := range d.plain[k] {
			cpu = append(cpu, float64(s.cpu))
			runWall = append(runWall, float64(s.runWall))
		}
		med[k] = medians{median(total), median(fe), median(wp), median(core), median(begin), median(cpu), median(runWall)}
		if r := d.first[k]; r != nil {
			refillInsts += float64(r.Core.Instructions) * float64(len(d.splits[k]))
		}
	}
	m["queue.refills_per_kinst"] = metric{1000 * ratio(refills, refillInsts), "count/kinst"}

	var tracedSum, plainSum float64
	for _, k := range d.kinds {
		r, md, name := d.first[k], med[k], k.String()
		if r == nil {
			continue
		}
		insts := float64(r.Core.Instructions)
		layers := md.fe + md.wp + md.core
		tracedSum += md.total
		plainSum += md.plainRun
		m["frontend."+name+".ns_per_inst"] = metric{md.fe / insts, "ns"}
		m["frontend."+name+".share"] = metric{md.fe / layers, "share"}
		m["frontend."+name+".alloc_b_per_inst"] = metric{float64(d.allocPass[k].frontendAllocB) / insts, "B/inst"}
		m["wrongpath."+name+".begin_ns"] = metric{md.begin, "ns"}
		m["wrongpath."+name+".share"] = metric{md.wp / layers, "share"}
		m["core."+name+".ns_per_inst"] = metric{md.core / (insts + float64(r.Core.WPFetched)), "ns"}
		m["core."+name+".share"] = metric{md.core / layers, "share"}
		if k != wrongpath.NoWP {
			m["wrongpath."+name+".wp_insts_per_mispredict"] = metric{ratio(float64(r.Policy.WPGenerated), float64(r.Policy.Mispredicts)), "inst"}
			m["wrongpath."+name+".slowdown_x"] = metric{md.plainCPU / med[wrongpath.NoWP].plainCPU, "x"}
		}
	}
	m["trace.overhead_frac"] = metric{tracedSum/plainSum - 1, "share"}

	ref := d.first[wrongpath.WPEmul]
	if ref == nil {
		t.fail("traced run has no wpemul reference result")
		return
	}
	emul := ratio(med[wrongpath.WPEmul].fe-med[wrongpath.NoWP].fe, float64(ref.WPEmulatedPaths))
	m["frontend.wpemul.emul_ns_per_path"] = metric{emul, "ns"}
	for _, k := range []wrongpath.Kind{wrongpath.Conv, wrongpath.ConvResolve} {
		if r := d.first[k]; r != nil {
			m["wrongpath."+k.String()+".ipc_err_pct"] = metric{100 * math.Abs((r.IPC()-ref.IPC())/ref.IPC()), "%"}
		}
	}
	if r := d.first[wrongpath.Conv]; r != nil {
		m["wrongpath.conv.conv_frac"] = metric{r.Policy.ConvFrac(), "share"}
		m["wrongpath.conv.addr_recover_frac"] = metric{r.Policy.AddrRecoverFrac(), "share"}
	}
	kinst := float64(ref.Core.Instructions) / 1000
	m["core.ipc"] = metric{ref.IPC(), "inst/cycle"}
	m["core.branch_mpki"] = metric{ref.Core.MPKI(), "count/kinst"}
	m["core.wp_fraction"] = metric{ref.Core.WPFraction(), "share"}
	m["cache.l1d_mpki"] = metric{float64(ref.L1D.Correct.Misses) / kinst, "count/kinst"}
	m["cache.llc_mpki"] = metric{float64(ref.LLC.Correct.Misses) / kinst, "count/kinst"}
	m["cache.wp_mem_frac"] = metric{ratio(float64(ref.WrongMemAccesses), float64(ref.MemAccesses)), "share"}

	// Isolated leaf timings on the workload's own program and streams.
	stepNs, err := d.in.stepNs()
	if err != nil {
		t.fail("functional step loop: %v", err)
	}
	m["functional.step_ns"] = metric{stepNs, "ns"}
	st, err := d.in.record()
	if err != nil {
		t.fail("recording the correct-path stream: %v", err)
		return
	}
	loadNs, bpNs := st.cacheLoadNs(), st.predictUpdateNs()
	m["cache.load_ns"] = metric{loadNs, "ns"}
	m["branch.predict_update_ns"] = metric{bpNs, "ns"}
	nowp := med[wrongpath.NoWP]
	explained := float64(len(st.mem))*loadNs + float64(len(st.ctrl))*bpNs
	m["core.unexplained_share"] = metric{(nowp.core - explained) / nowp.total, "share"}

	for _, k := range d.kinds {
		if b, ok := d.body[k]; ok {
			bodies = append(bodies, cacheBody{d.in.jobSpec(k).Fingerprint(), b})
		}
	}
	putUs, getUs, err := resultCacheTimes(filepath.Join(dir, "resultcache"), bodies)
	if err != nil {
		t.fail("result cache timing: %v", err)
	}
	m["resultcache.put_us"] = metric{putUs, "us"}
	m["resultcache.get_us"] = metric{getUs, "us"}
}

// normalizeTimes divides every time-valued metric in m by the host
// factor of the phase it was measured in.
func normalizeTimes(m map[string]metric, host float64) {
	for name, v := range m {
		switch v.Unit {
		case "ns", "us", "ms", "s":
			m[name] = metric{v.Value / host, v.Unit}
		}
	}
}

// serverMetrics fills the serving layer's per-layer metrics from the
// client-side job records.
func serverMetrics(m map[string]metric, sp *servedPhase, restart time.Duration) {
	var submit, hit, miss, wait, runMs []float64
	var hits, coalesced int
	for _, r := range sp.records {
		if !r.ok {
			continue
		}
		submit = append(submit, float64(r.submit.Nanoseconds())/1e3)
		lat := float64(r.latency.Nanoseconds()) / 1e6
		switch r.cache {
		case "hit":
			hits++
			hit = append(hit, lat)
		case "coalesced":
			coalesced++
		case "miss":
			miss = append(miss, lat)
			runMs = append(runMs, float64(r.wallNS)/1e6)
			wait = append(wait, lat-float64(r.wallNS)/1e6)
		}
	}
	n := float64(len(sp.records))
	m["server.submit_us"] = metric{median(submit), "us"}
	m["server.hit_ms"] = metric{median(hit), "ms"}
	m["server.miss_ms"] = metric{median(miss), "ms"}
	m["server.queue_wait_ms"] = metric{median(wait), "ms"}
	m["server.run_ms"] = metric{median(runMs), "ms"}
	m["server.dedup_frac"] = metric{float64(hits+coalesced) / n, "share"}
	m["server.coalesced_frac"] = metric{float64(coalesced) / n, "share"}
	m["server.restart_s"] = metric{restart.Seconds(), "s"}
}

// summarize writes what a reader needs to trust the record: the
// repetitions per technique with their result digests, and the served
// job counts with the deduplication share the generator states for the
// jobs run next to the one the server measured.
func summarize(log io.Writer, w workload, d *directPhase, sp *servedPhase) {
	for _, k := range d.kinds {
		fmt.Fprintf(log, "wpbench: direct %s %s/%s %s reps=%d traced=%d digest=%s\n",
			w.name, d.in.spec.Suite, d.in.spec.Bench, k, len(d.plain[k]), len(d.splits[k]), d.digest[k])
	}
	disp := map[string]int{}
	for _, r := range sp.records {
		disp[r.cache]++
	}
	keys := make([]string, 0, len(disp))
	for k := range disp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(log, "wpbench: served %s jobs=%d", w.name, len(sp.records))
	for _, k := range keys {
		fmt.Fprintf(log, " %s=%d", k, disp[k])
	}
	n := len(sp.records)
	measured := 0.0
	if n > 0 {
		measured = float64(disp["hit"]+disp["coalesced"]) / float64(n)
	}
	fmt.Fprintf(log, " dedup_stated=%.4f dedup_measured=%.4f repeat_share=%.2f\n",
		dedupShare(sp.seq[:n]), measured, repeatShare())
	for _, k := range keys {
		var lat []float64
		for _, r := range sp.records {
			if r.ok && r.cache == k {
				lat = append(lat, float64(r.latency.Nanoseconds())/1e6)
			}
		}
		fmt.Fprintf(log, "wpbench: served %s raw_latency_ms p10=%.3f p25=%.3f p50=%.3f p75=%.3f p90=%.3f\n",
			k, quantile(lat, 0.1), quantile(lat, 0.25), quantile(lat, 0.5), quantile(lat, 0.75), quantile(lat, 0.9))
	}
}
