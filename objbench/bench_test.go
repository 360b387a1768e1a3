package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// smokeRun runs cfg's workload at smoke size for one second.
func smokeRun(t *testing.T, cfg runCfg) *result {
	t.Helper()
	cfg.seed, cfg.seconds, cfg.smoke, cfg.traceDir = 7, 1, true, t.TempDir()
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	return res
}

// hasProblem reports whether the run failed with a problem starting
// with prefix.
func hasProblem(res *result, prefix string) bool {
	for _, p := range res.problems {
		if strings.HasPrefix(p, prefix) {
			return true
		}
	}
	return false
}

// metricNames lists the names a run of the given kind must print.
func metricNames(traced bool) []string {
	list := endToEnd
	if traced {
		list = perLayer
	}
	var out []string
	for _, m := range list {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func names(res *result) []string {
	var out []string
	for n := range res.Metrics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsSmoke runs every workload untraced and traced at smoke
// size: nothing fails, every oracle holds, and the printed metric names
// are exactly BENCHMARK.json's.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := smokeRun(t, runCfg{workload: w.name, trace: traced})
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				var out bytes.Buffer
				_ = printResult(&out, res)
				t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s",
					w.name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if got, want := names(res), metricNames(traced); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s traced=%v metrics\n got %v\nwant %v", w.name, traced, got, want)
			}
			for name, m := range res.Metrics {
				if m.Unit == "" {
					t.Errorf("%s: metric %s has no unit", w.name, name)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
				}
			}
			if traced && res.Metrics["trace.spans_evicted"].Value != 0 {
				t.Errorf("%s: %v trace spans evicted", w.name, res.Metrics["trace.spans_evicted"].Value)
			}
		}
	}
}

// TestOracleCatchesCorruptCounter: one Add the generator does not
// account for must fail the run.
func TestOracleCatchesCorruptCounter(t *testing.T) {
	res := smokeRun(t, runCfg{workload: "invoke-mem", corrupt: true})
	if res.Correct {
		t.Fatal("a corrupted counter passed the oracle")
	}
	if !hasProblem(res, "counter ") {
		t.Fatalf("no counter mismatch reported: %v", res.problems)
	}
}

// TestOracleCatchesStrayObjectAfterDrain: an object left on a drained
// node must fail the run, also when the only drain is the traced run's
// probe drain, which runs after the workload's own oracles.
func TestOracleCatchesStrayObjectAfterDrain(t *testing.T) {
	res := smokeRun(t, runCfg{workload: "invoke-mem", trace: true, stray: true})
	if res.Correct {
		t.Fatal("an object left on the drained node passed the oracle")
	}
	if !hasProblem(res, "after draining ") {
		t.Fatalf("no drain problem reported: %v", res.problems)
	}
}

// TestSpecFilesCurrent: BENCHMARK.json and spec.json are what
// --write-spec writes from the definitions in this package.
func TestSpecFilesCurrent(t *testing.T) {
	for path, v := range map[string]interface{}{
		filepath.Join("..", "BENCHMARK.json"): contractSpec(),
		"spec.json":                           fullSpec(),
	} {
		want, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bytes.TrimSpace(got), want) {
			t.Errorf("%s is stale: run bash objbench/run.sh --write-spec from the repository root", path)
		}
	}
}

// TestHistQuantile: a quantile reads as the mean of its 0.5%-wide
// bucket, so it lands within half a percent of the exact order statistic.
func TestHistQuantile(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.record(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.99, 990}} {
		if got := h.quantile(c.q) / 1e3; got < c.want*0.995 || got > c.want*1.005 {
			t.Errorf("q%v = %v us, want ~%v", c.q, got, c.want)
		}
	}
}

// TestCoveredUnion: a span's self time subtracts the union of its
// children clipped to the span, counting overlaps once.
func TestCoveredUnion(t *testing.T) {
	kids := []span{{Start: 5, End: 20}, {Start: 10, End: 30}, {Start: 40, End: 50}, {Start: 95, End: 120}}
	if got := covered(0, 100, kids); got != 25+10+5 {
		t.Fatalf("covered = %d, want 40", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Fatalf("covered without children = %d", got)
	}
}
