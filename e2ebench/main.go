// Command e2ebench is the end-to-end benchmark of bayescrowdd and the
// streaming crowd engine. It starts the daemon in-process on a loopback
// listener, drives it over HTTP with a seeded query load and a seeded
// crowd, checks every answer against the library, and prints its
// metrics as one JSON line:
//
//	bash e2ebench/run.sh --workload svc-mixed --seed 1 --seconds 25 --trace 0
//
// With --trace 1 it runs the traced pass instead and prints the
// per-layer metrics. With --repeat N it runs N child processes on
// consecutive seeds and prints each metric's median, quartiles and
// spread against its bound in BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the user-facing metrics, printed by an untraced run; the
// directions and bounds live in BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_s", "s"},
	{"latency_p95_s", "s"},
	{"throughput_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"f1_mean", "ratio"},
	{"cost_units_per_query", "tasks"},
	{"retained_kb_per_query", "KiB"},
}

// perLayer are the single-layer metrics, printed by a traced run. A
// layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"service.admit_ms_p50", "ms"},
	{"service.callback_ms_p50", "ms"},
	{"service.poll_ms_p50", "ms"},
	{"service.dedup_ratio", "ratio"},
	{"service.tasks_expired", "count"},
	{"service.residual_ms_per_query", "ms"},
	{"crowd.wait_ms_p50", "ms"},
	{"core.preprocess_s", "s"},
	{"core.select_ms_per_round", "ms"},
	{"core.other_ms_per_round", "ms"},
	{"core.attributed_share", "ratio"},
	{"ctable.build_ms", "ms"},
	{"ctable.undecided_per_query", "count"},
	{"prob.initial_ms", "ms"},
	{"prob.maintain_ms_per_round", "ms"},
	{"prob.cache_hit_ratio", "ratio"},
	{"prob.solved_per_query", "count"},
	{"stream.recomputed_per_tick", "count"},
	{"stream.invalidated_per_tick", "count"},
	{"stream.machine_ms_per_tick", "ms"},
	{"stream.crowd_share", "ratio"},
	{"stream.absorbed_ratio", "ratio"},
	{"loadgen.late_ms_max", "ms"},
	{"trace.overhead", "ratio"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// render fills the metric table defs from vals. Every value must be one
// of defs; with strict, every def needs a value, otherwise a missing one
// is 0.
func render(defs []metricDef, vals map[string]float64, strict bool) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && strict {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

// run parses the flags, runs the workload and prints the result line;
// it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed of the data, the query seeds, the arrivals and the crowd delays")
	seconds := fs.Int("seconds", 25, "measured seconds of the run")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	repeat := fs.Int("repeat", 0, "calibrate: run N child processes on seeds seed..seed+N-1 and report each metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "e2ebench: need -workload (%s), -seconds >= 1 and -trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	if *repeat > 0 {
		return calibrate(args, w.name, *seed, *repeat, *trace == 1, stdout, stderr)
	}
	cfg := runConfig{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		spans: filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))}
	res, err := runWorkload(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runConfig is one run of one workload.
type runConfig struct {
	w     workload
	seed  int64
	dur   time.Duration
	trace bool
	spans string // traced pass: where the spans go
}

// runWorkload runs cfg and returns its result line. An untraced run
// measures the work sized for cfg.dur. A traced run measures an untraced
// and a traced pass (the traced-to-untraced throughput ratio is the
// tracing overhead), replays the layers in-process and writes the spans.
func runWorkload(cfg runConfig, log io.Writer) (*result, error) {
	if cfg.w.stream {
		return runStream(cfg, log)
	}
	return runSvc(cfg, log)
}

// runSvc runs a svc-* workload.
func runSvc(cfg runConfig, log io.Writer) (*result, error) {
	in, err := prepareSvc(cfg.w, cfg.seed)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		p, err := runSvcPass(in, cfg.dur, nil)
		if err != nil {
			return nil, err
		}
		ok, attempted, failed, firstErr := p.tally()
		report(log, cfg, attempted, failed, firstErr)
		if len(ok) == 0 {
			return nil, fmt.Errorf("no query completed")
		}
		vals, err := p.endToEnd(ok)
		if err != nil {
			return nil, err
		}
		return finish(endToEnd, vals, true, attempted, failed, firstErr == nil)
	}

	untraced, err := runSvcPass(in, cfg.dur/2, nil)
	if err != nil {
		return nil, err
	}
	okU, attU, failedU, errU := untraced.tally()
	rec := newRecorder()
	traced, err := runSvcPass(in, cfg.dur/2, rec)
	if err != nil {
		return nil, err
	}
	okT, attT, failedT, errT := traced.tally()
	firstErr := errors.Join(errU, errT)
	report(log, cfg, attU+attT, failedU+failedT, firstErr)
	if len(okU) == 0 || len(okT) == 0 {
		return nil, fmt.Errorf("no query completed")
	}
	rp, err := replaySvc(in)
	if err != nil {
		return nil, err
	}
	vals, err := traced.perLayer(okT, rec, rp)
	if err != nil {
		return nil, err
	}
	for k, v := range rp.metrics {
		vals[k] = v
	}
	vals["trace.overhead"] = traced.throughput(okT) / untraced.throughput(okU)
	if err := rec.write(cfg.spans); err != nil {
		return nil, err
	}
	return finish(perLayer, vals, false, attU+attT, failedU+failedT, firstErr == nil)
}

// runStream runs stream-crowd. An untraced run makes w.passes passes
// over the same ticks, each on fresh engines; a traced run makes an
// untraced and a traced pass.
func runStream(cfg runConfig, log io.Writer) (*result, error) {
	ticks := cfg.w.ops(cfg.dur) / cfg.w.passes
	in := prepareStream(cfg.w, ticks)
	if !cfg.trace {
		var passes []*streamPass
		attempted, failed, done := ticks*cfg.w.passes, 0, 0
		var firstErr error
		for i := 0; i < cfg.w.passes; i++ {
			p, err := runStreamPass(in, ticks, nil)
			if err != nil {
				return nil, err
			}
			passes = append(passes, p)
			done += p.ticks
			failed += p.broken
			if firstErr == nil {
				firstErr = p.firstErr
			}
			if p.refused > 0 {
				break
			}
		}
		failed += attempted - done // what the memory guard stopped
		report(log, cfg, attempted, failed, firstErr)
		vals, err := streamEndToEnd(passes)
		if err != nil {
			return nil, err
		}
		return finish(endToEnd, vals, true, attempted, failed, firstErr == nil)
	}

	untraced, err := runStreamPass(in, ticks, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	traced, err := runStreamPass(in, ticks, rec)
	if err != nil {
		return nil, err
	}
	firstErr := errors.Join(untraced.firstErr, traced.firstErr)
	attempted := untraced.ticks + untraced.refused + traced.ticks + traced.refused
	failed := untraced.broken + untraced.refused + traced.broken + traced.refused
	report(log, cfg, attempted, failed, firstErr)
	machine, err := replayStream(in, traced.ticks)
	if err != nil {
		return nil, err
	}
	vals, err := traced.perLayer(rec, machine)
	if err != nil {
		return nil, err
	}
	rateU := float64(untraced.ticks) / untraced.busy.Seconds()
	rateT := float64(traced.ticks) / traced.busy.Seconds()
	vals["trace.overhead"] = rateT / rateU
	if err := rec.write(cfg.spans); err != nil {
		return nil, err
	}
	return finish(perLayer, vals, false, attempted, failed, firstErr == nil)
}

// report prints the run's tallies and its first failure to the log.
func report(log io.Writer, cfg runConfig, attempted, failed int, firstErr error) {
	fmt.Fprintf(log, "e2ebench: %s seed %d: %d attempted, %d failed\n", cfg.w.name, cfg.seed, attempted, failed)
	if firstErr != nil {
		fmt.Fprintf(log, "e2ebench: first failure: %v\n", firstErr)
	}
}

// finish assembles the result line.
func finish(defs []metricDef, vals map[string]float64, strict bool, attempted, failed int, clean bool) (*result, error) {
	m, err := render(defs, vals, strict)
	if err != nil {
		return nil, err
	}
	return &result{Correct: clean && failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// calibrate runs n child processes of this binary with the same flags
// on seeds seed..seed+n-1 and prints, per metric, the median, the
// quartiles and the spread (q3−q1)/median against the metric's bound in
// BENCHMARK.json (read from the working directory). It fails when a
// child fails or a bounded metric other than setup_s spreads past its
// bound.
func calibrate(args []string, name string, seed int64, n int, trace bool, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	bounds := map[string]float64{}
	if raw, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var spec struct {
			EndToEnd []struct {
				Name  string  `json:"name"`
				Bound float64 `json:"bound"`
			} `json:"end_to_end"`
		}
		if err := json.Unmarshal(raw, &spec); err != nil {
			fmt.Fprintf(stderr, "e2ebench: BENCHMARK.json: %v\n", err)
			return 1
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		child := append(childArgs(args), "-seed", fmt.Sprint(seed+int64(i)))
		cmd := exec.Command(exe, child...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: %s seed %d: %v\n", name, seed+int64(i), err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(stderr, "e2ebench: %s seed %d: result line: %v\n", name, seed+int64(i), err)
			return 1
		}
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	code := 0
	fmt.Fprintf(stdout, "%s, %d runs from seed %d (trace %v)\n", name, n, seed, trace)
	fmt.Fprintf(stdout, "%-32s %-6s %14s %14s %14s %8s %6s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound")
	for _, k := range keys {
		if len(values[k]) < 2 {
			continue
		}
		q1, q2, q3 := quartiles(values[k])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		flagged := ""
		if b, ok := bounds[k]; ok {
			fmt.Fprintf(stdout, "%-32s %-6s %14.6g %14.6g %14.6g %8.4f %6.3f", k, units[k], q1, q2, q3, spread, b)
			if spread > b {
				flagged = "  SPREAD EXCEEDS BOUND"
				if k != "setup_s" {
					code = 1
				}
			}
		} else {
			fmt.Fprintf(stdout, "%-32s %-6s %14.6g %14.6g %14.6g %8.4f %6s", k, units[k], q1, q2, q3, spread, "-")
		}
		fmt.Fprintf(stdout, "%s\n", flagged)
	}
	return code
}

// childArgs drops -repeat and -seed from the parent's flags.
func childArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		key, _, hasValue := strings.Cut(a, "=")
		if key == "repeat" || key == "seed" {
			if !hasValue {
				i++ // skip the separate value
			}
			continue
		}
		out = append(out, args[i])
	}
	return out
}
