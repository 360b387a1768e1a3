// Command objbench is the objmig runtime's benchmark: a single-process,
// closed-loop load generator over the public objmig API. It boots a
// 3-node cluster in process, drives one seeded workload for a fixed
// time, checks every output against its oracles and prints each
// end-to-end metric (or, with --trace 1, each per-layer metric) by name
// and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}}}
//
// Run it from the repository root through objbench/run.sh, which builds
// it first:
//
//	bash objbench/run.sh --workload invoke-mem --seed 1 --seconds 30 --trace 0
//
// --write-spec regenerates BENCHMARK.json and objbench/spec.json from
// the definitions in spec.go and workloads.go.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"objmig"
)

// runCfg is one invocation's settings.
type runCfg struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool   // test-sized population
	corrupt  bool   // test hook: one Add the oracle is not told about
	stray    bool   // test hook: every drain leaves a new object on the drained node
	traceDir string // where the traced run writes its spans
}

func (c runCfg) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// result is what one run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	problems []string
	lines    []string // human-readable report, printed before the JSON
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg runCfg
	var traced int
	var writeSpec bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: invoke-mem, churn-mem or drain-tcp")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the timed phase")
	flag.IntVar(&traced, "trace", 0, "1 runs the traced replay and prints the per-layer metrics")
	flag.BoolVar(&writeSpec, "write-spec", false, "write BENCHMARK.json and objbench/spec.json, then exit")
	flag.Parse()
	cfg.trace = traced == 1
	cfg.traceDir = filepath.Join(".bench_build", "trace")

	if writeSpec {
		if err := writeJSON("BENCHMARK.json", contractSpec()); err != nil {
			fatal(err)
		}
		if err := writeJSON(filepath.Join(specPath, "spec.json"), fullSpec()); err != nil {
			fatal(err)
		}
		return
	}
	if workloadByName(cfg.workload) == nil {
		fatal(fmt.Errorf("unknown workload %q", cfg.workload))
	}
	if traced != 0 && traced != 1 || cfg.seconds <= 0 {
		fatal(fmt.Errorf("--trace must be 0 or 1 and --seconds positive"))
	}
	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fatal(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// cpuTime is the processor time, user and system, that every thread of
// the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "objbench:", err)
	os.Exit(2)
}

func printResult(w io.Writer, res *result) error {
	for _, l := range res.lines {
		fmt.Fprintln(w, l)
	}
	for _, p := range res.problems {
		fmt.Fprintln(w, "ORACLE FAILED:", p)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// run sets the workload up, drives the timed phase on that cluster,
// checks the oracles and assembles the metrics. An untraced run sets
// up setupReps times in all (setup_s is the median): the measured
// cluster first, the others spread over the timed phase (see hold).
func run(cfg runCfg) (*result, error) {
	w := workloadByName(cfg.workload)
	sz := w.full
	if cfg.smoke {
		sz = w.smoke
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	var setupCPU, setupWall []float64
	timedSetup := func(tr *tracer) (*env, error) {
		runtime.GC()
		c0, t0 := cpuTime(), time.Now()
		e, err := setup(ctx, cfg, w, sz, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up %d of %s: %w", len(setupCPU)+1, w.name, err)
		}
		setupWall = append(setupWall, time.Since(t0).Seconds())
		setupCPU = append(setupCPU, (cpuTime() - c0).Seconds())
		return e, nil
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	e, err := timedSetup(tr)
	if err != nil {
		return nil, err
	}
	defer e.cl.close()
	if !cfg.trace {
		e.setupsDue = sz.setupReps - 1
		e.interleave = func() error {
			x, err := timedSetup(nil)
			if err != nil {
				return err
			}
			x.cl.close()
			return nil
		}
	}

	runtime.GC()
	defer e.tr.stopRings()
	if err := w.run(ctx, e); err != nil {
		return nil, err
	}
	if e.setupErr != nil {
		return nil, e.setupErr
	}
	if cfg.corrupt {
		if _, err := objmig.Call[int64, int64](ctx, e.cl.nodes[0], e.set.flat[0], "Add", 1); err != nil {
			return nil, err
		}
	}
	e.checkOracles(ctx)

	res := &result{Attempted: e.attempted.Load(), Failed: e.failed.Load(), Metrics: map[string]metricValue{}}
	if res.Attempted == 0 {
		res.Attempted, res.Failed = 1, 1
		e.problem("no operation was attempted")
	}
	res.problems = e.problems
	res.Correct = len(res.problems) == 0
	res.lines = append(res.lines, fmt.Sprintf("objbench %s seed=%d seconds=%g trace=%v: %s fabric, 3 nodes, %d callers (closed loop), %d closures x %d objects, %d B blobs",
		w.name, cfg.seed, cfg.seconds, cfg.trace, w.transport, w.callers, sz.closures, sz.members, sz.blobBytes))
	res.lines = append(res.lines, fmt.Sprintf("  %-32s %g (%d of %d operations)", "fail_frac",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted))

	if !cfg.trace {
		e.endToEnd(res, setupCPU, setupWall)
		return res, nil
	}
	probes, err := e.probeLayers(ctx)
	if err != nil {
		return nil, err
	}
	// The probe drain checks its own oracles: the drained node ends
	// empty and the cluster still hosts every object once.
	res.problems = e.problems
	res.Correct = len(res.problems) == 0
	if err := e.layerMetrics(res, probes); err != nil {
		return nil, err
	}
	return res, nil
}

// put records a metric of the result and prints it.
func (r *result) put(name string, v float64, note string) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	r.lines = append(r.lines, fmt.Sprintf("  %-32s %-14.6g %-6s %s", name, v, unitOf(name), note))
}

// show prints a metric that is reported but not gated (see printedOnly).
func (r *result) show(name string, v float64, note string) {
	r.lines = append(r.lines, fmt.Sprintf("  %-32s %-14.6g %-6s %s [printed only]", name, v, unitOf(name), note))
}

func unitOf(name string) string {
	for _, list := range [][]metricSpec{endToEnd, perLayer, printedOnly} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	panic("objbench: metric " + name + " is not in spec.go")
}

// endToEnd fills the untraced run's metrics.
func (e *env) endToEnd(res *result, setupCPU, setupWall []float64) {
	res.put("setup_s", median(setupCPU), fmt.Sprintf("(processor time, median of %d set-ups)", len(setupCPU)))
	res.show("setup_wall_s", median(setupWall), fmt.Sprintf("(median of %d set-ups)", len(setupWall)))
	var h hist
	for _, c := range e.invokeHist {
		h.merge(c)
	}
	invokers := float64(e.invokers.Load())
	secs := float64(e.invokeNanos.Load()) / 1e9 / invokers
	res.put("invoke_p50_us", h.quantile(0.5)/1e3, fmt.Sprintf("(n=%d)", h.n))
	res.show("invoke_ops_s", float64(e.invokeOps.Load())/secs, fmt.Sprintf("(%d calls in %.2f s)", e.invokeOps.Load(), secs))
	res.show("invoke_p99_us", h.quantile(0.99)/1e3, fmt.Sprintf("(n=%d, %d beyond; p99.9 %.4g us, max %.4g us)",
		h.n, h.n/100, h.quantile(0.999)/1e3, h.quantile(1)/1e3))
	msecs := float64(e.moveNanos) / 1e9
	what := "migrations"
	if len(e.drains) > 0 {
		what = fmt.Sprintf("group moves in %d drains", len(e.drains))
	}
	res.put("move_p50_ms", e.moveHist.quantile(0.5)/1e6, fmt.Sprintf("(n=%d)", e.moveHist.n))
	res.show("move_ops_s", float64(e.moveOps)/msecs, fmt.Sprintf("(%d %s in %.2f s)", e.moveOps, what, msecs))
	res.show("move_p99_ms", e.moveHist.quantile(0.99)/1e6, fmt.Sprintf("(n=%d, %d beyond)", e.moveHist.n, e.moveHist.n/100))
	res.show("move_mb_s", float64(e.moveBytes)/1e6/msecs, fmt.Sprintf("(%d snapshot bytes)", e.moveBytes))
	res.put("heap_peak_mb", float64(e.heapPeak)/1e6, "")
}

// layerMetrics fills the traced run's metrics: probes, counter deltas
// over the timed phase, the nodes' phase spans and the drains.
func (e *env) layerMetrics(res *result, probes map[string]float64) error {
	phases, missed, evicted := e.tr.collect()
	rows := e.tr.selfTimes()
	path, err := e.tr.write(e.cfg.traceDir, e.w.name, e.cfg.seed)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}

	d := func(f func(objmig.Stats) int64) float64 {
		var v int64
		for i := range e.statsAfter {
			v += f(e.statsAfter[i]) - f(e.statsBefore[i])
		}
		return float64(v)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	for _, m := range perLayer {
		if v, ok := probes[m.Name]; ok {
			res.put(m.Name, v, "(probe)")
		}
	}
	res.put("framebuf.hit_frac", ratio(float64(e.fbHits), float64(e.fbHits+e.fbMisses)), fmt.Sprintf("(%d gets)", e.fbHits+e.fbMisses))
	chases := d(func(s objmig.Stats) int64 { return s.HintHits + s.HintMisses })
	res.put("chase.hint_hit_frac", ratio(d(func(s objmig.Stats) int64 { return s.HintHits }), chases), fmt.Sprintf("(%.0f chases)", chases))
	res.put("chase.hops_per_chase", ratio(d(func(s objmig.Stats) int64 { return s.ChaseHops }), chases), "")
	p99 := 0
	for _, s := range e.statsAfter {
		if s.ChaseP99Hops > p99 {
			p99 = s.ChaseP99Hops
		}
	}
	res.put("chase.p99_hops", float64(p99), "(worst node, since boot)")
	res.put("chase.over_budget", d(func(s objmig.Stats) int64 { return s.ChasesOverBudget }), "")
	for _, ph := range []string{"pause", "snapshot", "stream", "stage", "install", "commit"} {
		xs := phases["migrate."+ph]
		res.put("migrate."+ph+"_us", median(xs), fmt.Sprintf("(median of %d spans)", len(xs)))
	}
	migs := d(func(s objmig.Stats) int64 { return s.MigrationsOut })
	res.put("migrate.abort_frac", ratio(d(func(s objmig.Stats) int64 { return s.StreamAborts }), migs), fmt.Sprintf("(%.0f migrations)", migs))
	res.put("homebatch.coalesce_ratio", ratio(d(func(s objmig.Stats) int64 { return s.HomeUpdatesQueued }),
		d(func(s objmig.Stats) int64 { return s.HomeUpdateBatches })), "")

	var plans []float64
	var moves, skipped, retargets, done, vetoes, reserves float64
	for _, r := range e.drains {
		plans = append(plans, float64(r.planned.Sub(r.start))/1e6)
		moves += float64(r.status.Moves)
		skipped += float64(r.status.MovesSkipped)
		retargets += float64(r.status.Retargets)
		done += float64(r.status.MovesDone)
		vetoes += float64(r.vetoes)
		reserves += float64(r.reserves)
	}
	waves := e.tr.waveDurations()
	nd := fmt.Sprintf("(%d drains)", len(e.drains))
	res.put("jobs.plan_ms", median(plans), nd)
	res.put("jobs.skip_frac", ratio(skipped, moves), fmt.Sprintf("(%.0f planned moves)", moves))
	res.put("jobs.retarget_frac", ratio(retargets, moves), "")
	res.put("jobs.moves_per_wave", ratio(done, float64(len(waves))), fmt.Sprintf("(%d waves)", len(waves)))
	res.put("jobs.wave_ms", median(waves), "")
	res.put("placement.vetoes", ratio(vetoes, float64(len(e.drains))), nd)
	res.put("placement.reservations", ratio(reserves, float64(len(e.drains))), nd)

	over, rate := e.tr.overhead()
	res.put("trace.overhead_frac", over, "(traced vs untraced windows)")
	res.put("trace.invoke_ops_s", rate, "")
	res.put("trace.spans_evicted", float64(missed), fmt.Sprintf("(the rings overwrote %d spans in all, each after it was read)", evicted))

	res.lines = append(res.lines, "  self time per span (median us):  count    duration   self")
	for _, r := range rows {
		res.lines = append(res.lines, fmt.Sprintf("    %-30s %8d %10.2f %8.2f", r.name, r.count, r.durUs, r.selfUs))
	}
	kept, dropped := e.tr.counts()
	res.lines = append(res.lines, fmt.Sprintf("  %d spans written to %s (%d past the %d-span caps not kept)", kept, path, dropped, maxSpans))
	return nil
}
