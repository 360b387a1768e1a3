package main

import (
	"bytes"
	"encoding/json"
	"os"
)

// metricSpec is one reported metric. Bound (end-to-end only) is the
// share of the parent's median by which it may worsen before a change
// counts as a regression. Meaning says what it measures; Moves (per
// layer only) names the end-to-end metric and workload it should move.
type metricSpec struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Bound   float64 `json:"bound,omitempty"`
	Meaning string  `json:"meaning,omitempty"`
	Moves   string  `json:"moves,omitempty"`
}

// endToEnd are the gated metrics a user of the runtime sees; every
// workload reports all of them. A relocation ("move") is the workload's
// relocation request as the application issues it: a single-object
// Migrate in invoke-mem's quiet phase, a closure Migrate in churn-mem,
// a whole drain job in drain-tcp. Every gated latency is a median: on a
// shared 2-vCPU machine, means and tails (throughputs, p99s) swung by
// 25-50% between runs of one binary, medians by under 12%. setup_s is
// processor time, not wall time: a set-up's wall time follows how much
// processor the host grants, and with the host's steal between 5% and
// 20% the median wall time of one set-up moved by 40% between sets of
// runs (by 2x when the nodes set up in parallel) while its processor
// time moved by under 10%. Waits in a set-up do not count; the gated
// workloads' set-ups have none.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Meaning: "processor time (user and system, all threads) of one set-up - cluster boot, object creation, fill and warm-up - median over the run's set-ups: the measured cluster's, then the rest spread evenly over the timed phase, the callers held meanwhile"},
	{Name: "invoke_p50_us", Unit: "us", Better: "lower", Bound: 0.25,
		Meaning: "median latency of one typed Call"},
	{Name: "move_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Meaning: "median latency of one relocation request (drain-tcp: one drain job, plan to done)"},
	{Name: "heap_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25,
		Meaning: "peak Go heap (object bytes, unswept garbage included) during the timed phase: the 90th percentile over one-second windows of each window's peak, read every 2 ms"},
}

// printedOnly are end-to-end metrics every untraced run prints, with
// their sample counts, but that no bound gates: they depend on a run's
// rarest, slowest operations, which the machine's noise moves more than
// any bound of 0.25 allows.
var printedOnly = []metricSpec{
	{Name: "invoke_ops_s", Unit: "1/s", Better: "higher", Meaning: "completed typed Calls per second of caller time"},
	{Name: "invoke_p99_us", Unit: "us", Better: "lower", Meaning: "99th-percentile latency of one typed Call"},
	{Name: "move_ops_s", Unit: "1/s", Better: "higher",
		Meaning: "completed migrations per second of relocation time (a drain counts the group moves it drove)"},
	{Name: "move_p99_ms", Unit: "ms", Better: "lower", Meaning: "99th-percentile latency of one relocation request"},
	{Name: "move_mb_s", Unit: "MB/s", Better: "higher", Meaning: "snapshot bytes shipped per second of relocation time"},
	{Name: "setup_wall_s", Unit: "s", Better: "lower",
		Meaning: "wall time of one set-up, median over the same set-ups as setup_s"},
	{Name: "fail_frac", Unit: "frac", Better: "lower",
		Meaning: "failed or refused operations over attempted; also the result's failed/attempted"},
}

// perLayer are the traced run's metrics, one group per module.
var perLayer = []metricSpec{
	{Name: "types.local_call_us", Unit: "us", Better: "lower", Moves: "invoke_ops_s, invoke_p50_us on invoke-mem",
		Meaning: "typed Call on an object hosted by the caller, the workload's argument mix"},
	{Name: "types.local_call_allocs", Unit: "count", Better: "lower", Moves: "invoke_ops_s on invoke-mem"},
	{Name: "types.remote_call_us", Unit: "us", Better: "lower", Moves: "invoke_ops_s, invoke_p50_us on invoke-mem",
		Meaning: "typed Call on an object one warm hop away"},
	{Name: "store.acquire_ns", Unit: "ns", Better: "lower", Moves: "invoke_p50_us on invoke-mem",
		Meaning: "Lookup+Acquire+Release over the workload's OIDs"},
	{Name: "wire.invoke_codec_ns", Unit: "ns", Better: "lower", Moves: "invoke_p50_us on invoke-mem",
		Meaning: "MarshalAppend+Unmarshal of the workload's InvokeReq and InvokeResp"},
	{Name: "wire.invoke_codec_allocs", Unit: "count", Better: "lower", Moves: "invoke_p50_us on invoke-mem"},
	{Name: "wire.chunk_codec_us", Unit: "us", Better: "lower", Moves: "move_p50_ms on churn-mem",
		Meaning: "MarshalAppend+Unmarshal of an InstallChunkReq carrying one closure's snapshots"},
	{Name: "framebuf.hit_frac", Unit: "frac", Better: "higher", Moves: "invoke_p99_us on invoke-mem; heap_peak_mb on drain-tcp",
		Meaning: "frame-pool hits over gets during the timed phase"},
	{Name: "transport.mem_rtt_us", Unit: "us", Better: "lower", Moves: "invoke_p50_us on invoke-mem",
		Meaning: "in-memory echo of an invoke-sized frame"},
	{Name: "transport.tcp_rtt_us", Unit: "us", Better: "lower", Moves: "invoke_p50_us on drain-tcp",
		Meaning: "loopback TCP echo of an invoke-sized frame"},
	{Name: "transport.tcp_mb_s", Unit: "MB/s", Better: "higher", Moves: "move_mb_s on drain-tcp",
		Meaning: "stop-and-wait throughput of 256 KiB frames over loopback TCP"},
	{Name: "rpc.call_us", Unit: "us", Better: "lower", Moves: "invoke_p50_us on invoke-mem",
		Meaning: "Pool.Call to a handler that decodes the InvokeReq, on the workload's fabric"},
	{Name: "invoke.unattributed_us", Unit: "us", Better: "lower", Moves: "invoke_p50_us on invoke-mem",
		Meaning: "types.remote_call_us - types.local_call_us - rpc.call_us"},
	{Name: "chase.hint_hit_frac", Unit: "frac", Better: "higher", Moves: "invoke_p99_us on churn-mem"},
	{Name: "chase.hops_per_chase", Unit: "count", Better: "lower", Moves: "invoke_p99_us on churn-mem"},
	{Name: "chase.p99_hops", Unit: "count", Better: "lower", Moves: "invoke_p99_us on churn-mem"},
	{Name: "chase.over_budget", Unit: "count", Better: "lower", Moves: "invoke_p99_us on churn-mem"},
	{Name: "chase.locate_us", Unit: "us", Better: "lower", Moves: "invoke_p99_us on churn-mem",
		Meaning: "Node.Locate from a random node"},
	{Name: "migrate.pause_us", Unit: "us", Better: "lower", Moves: "move_ops_s, move_p50_ms on churn-mem"},
	{Name: "migrate.snapshot_us", Unit: "us", Better: "lower", Moves: "move_ops_s, move_p50_ms on churn-mem"},
	{Name: "migrate.stream_us", Unit: "us", Better: "lower", Moves: "move_p50_ms on churn-mem; move_p50_ms on drain-tcp"},
	{Name: "migrate.stage_us", Unit: "us", Better: "lower", Moves: "move_p50_ms on churn-mem; move_p50_ms on drain-tcp"},
	{Name: "migrate.install_us", Unit: "us", Better: "lower", Moves: "move_ops_s, move_p50_ms on churn-mem"},
	{Name: "migrate.commit_us", Unit: "us", Better: "lower", Moves: "move_ops_s, move_p50_ms on churn-mem"},
	{Name: "migrate.allocs_per_object", Unit: "count", Better: "lower", Moves: "move_p50_ms on churn-mem"},
	{Name: "migrate.wire_bytes_per_object", Unit: "B", Better: "lower", Moves: "move_mb_s on churn-mem"},
	{Name: "migrate.abort_frac", Unit: "frac", Better: "lower", Moves: "move_ops_s on churn-mem"},
	{Name: "homebatch.coalesce_ratio", Unit: "count", Better: "higher", Moves: "move_ops_s on churn-mem"},
	{Name: "jobs.plan_ms", Unit: "ms", Better: "lower", Moves: "move_p50_ms on drain-tcp"},
	{Name: "jobs.skip_frac", Unit: "frac", Better: "lower", Moves: "move_p50_ms, move_mb_s on drain-tcp"},
	{Name: "jobs.retarget_frac", Unit: "frac", Better: "lower", Moves: "move_p50_ms, move_mb_s on drain-tcp"},
	{Name: "jobs.moves_per_wave", Unit: "count", Better: "higher", Moves: "move_p50_ms, move_mb_s on drain-tcp"},
	{Name: "jobs.wave_ms", Unit: "ms", Better: "lower", Moves: "move_p50_ms, move_mb_s on drain-tcp"},
	{Name: "placement.vetoes", Unit: "count", Better: "lower", Moves: "move_p50_ms on drain-tcp",
		Meaning: "admission vetoes per drain"},
	{Name: "placement.reservations", Unit: "count", Better: "lower", Moves: "move_p50_ms on drain-tcp",
		Meaning: "ledger reservations per drain"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower",
		Meaning: "1 - traced/untraced invoke rate over alternating windows of the timed phase"},
	{Name: "trace.invoke_ops_s", Unit: "1/s", Better: "higher",
		Meaning: "invoke rate in the traced windows"},
	{Name: "trace.spans_evicted", Unit: "count", Better: "lower",
		Meaning: "migration spans a node's ring overwrote before the benchmark read them; 0 means phase medians saw every span"},
}

const (
	specCommand = "objbench/run.sh"
	specPath    = "objbench"
	runSeconds  = 30
)

// contractSpec is BENCHMARK.json: the contract's keys only.
func contractSpec() interface{} {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var ws []wl
	for _, w := range workloads {
		if w.excluded == "" {
			ws = append(ws, wl{w.name, w.why})
		}
	}
	var es []e2e
	for _, m := range endToEnd {
		es = append(es, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	var ls []layer
	for _, m := range perLayer {
		ls = append(ls, layer{m.Name, m.Unit, m.Better})
	}
	return struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{[]string{"bash", specCommand}, []string{specPath}, runSeconds, ws, es, ls}
}

// fullSpec is objbench/spec.json: the contract plus each workload's
// sizes, fabric, caller count and seed handling, what every metric
// means, and which end-to-end metric each per-layer metric should move.
func fullSpec() interface{} {
	type wl struct {
		Name      string `json:"name"`
		Why       string `json:"why"`
		Transport string `json:"transport"`
		Nodes     int    `json:"nodes"`
		Callers   int    `json:"callers"`
		Closures  int    `json:"closures"`
		Members   int    `json:"members_per_closure"`
		BlobBytes int    `json:"blob_bytes_per_object"`
		SetupReps int    `json:"setups_per_run"`
		Placement bool   `json:"placement"`
		Capacity  int64  `json:"capacity_objects_per_node,omitempty"`
		Load      string `json:"load"`
		Excluded  string `json:"excluded_from_benchmark_json,omitempty"`
	}
	var ws []wl
	for _, w := range workloads {
		ws = append(ws, wl{w.name, w.why, w.transport, 3, w.callers, w.full.closures, w.full.members,
			w.full.blobBytes, w.full.setupReps, w.placement, w.capacity, w.load, w.excluded})
	}
	return struct {
		Seed      string       `json:"seed"`
		Workloads []wl         `json:"workloads"`
		EndToEnd  []metricSpec `json:"end_to_end"`
		Printed   []metricSpec `json:"printed_only"`
		PerLayer  []metricSpec `json:"per_layer"`
	}{
		"--seed n seeds every input: objects, blobs, Put records and each caller's sequence of objects, operations, arguments, targets and coordinators; the same seed gives the same inputs",
		ws, endToEnd, printedOnly, perLayer,
	}
}

func writeJSON(path string, v interface{}) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
