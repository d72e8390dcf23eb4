// Command ckptbench drives one checkpoint's trip through the production
// ndpcr stack — gateway HTTP, node commit to NVM, NDP read → compress →
// shard fan-out → iod wire → iostore, and the restore path back — from
// one load-generating process, and reports end-to-end metrics (untraced
// runs) or per-layer metrics (traced runs). See README.md.
//
//	ckptbench --workload ckpt_bulk --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// A run brings the stack up at least minSetups times and until the
// set-ups add up to setupBudget, half of them before the measured window
// and half after it, so that setup_s — their median — neither rests on a
// few milliseconds of host state nor on a set-up of milliseconds timed too
// few times.
const (
	minSetups   = 8
	setupBudget = 2 * time.Second
)

// warmShare is the share of --seconds the workload runs on the set-up
// stack before timing starts, so the measured window does not hold the
// first seconds of a fresh process and stack. Its operations are checked
// and count in attempted and failed like the measured ones.
const warmShare = 1.0 / 9

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", 45, "measured seconds (a traced run splits them between an untraced and a traced half)")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		root     = flag.String("root", ".", "source tree root (fingerprinted into every result)")
		outDir   = flag.String("out", ".bench_build/ckptbench", "directory for the result history and span dumps")
	)
	flag.Parse()
	sp, ok := specByName(*workload)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "ckptbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	out, err := benchmark(sp, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *root, *outDir, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ckptbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ckptbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.Name)
	}
	return names
}

// benchmark runs one workload and returns its result, writing the report
// (host calibration, inputs, every metric with its sample counts) to w.
func benchmark(sp spec, seed uint64, dur time.Duration, traced bool, root, outDir string, w io.Writer) (result, error) {
	host := calibrate(root)
	fmt.Fprintf(w, "# ckptbench workload=%s seed=%d seconds=%g trace=%v\n", sp.Name, seed, dur.Seconds(), traced)
	fmt.Fprintf(w, "# host nproc=%d gomaxprocs=%d spin_speedup=%.3f timer_grain_ns=%.0f go=%s source=%s\n",
		host.NumCPU, host.GOMAXPROCS, host.SpinSpeedup, host.TimerGrainNs, host.GoVersion, host.Source)

	genStart := time.Now()
	pool, err := bulkPool(seed)
	if err != nil {
		return result{}, fmt.Errorf("generating inputs: %w", err)
	}
	if sp.Small {
		pool = smallPool(pool, seed, 8, 16<<10)
	}
	fmt.Fprintf(w, "# inputs %d items, %.1f MB, generated in %.2fs\n", len(pool), poolMB(pool), time.Since(genStart).Seconds())

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var seq atomic.Uint64
	var setupTimes []float64
	var spent time.Duration
	// setUpTimed brings up one stack from a collected heap, so no set-up
	// pays for the input generation's or an earlier set-up's garbage.
	setUpTimed := func() (*rig, error) {
		runtime.GC()
		t0 := time.Now()
		r, err := setUp(sp, pool, seed, &seq, tr)
		if err != nil {
			return nil, err
		}
		took := time.Since(t0)
		spent += took
		setupTimes = append(setupTimes, took.Seconds())
		return r, nil
	}
	var g *rig
	for g == nil || len(setupTimes) < minSetups/2 || spent < setupBudget/2 {
		if g != nil {
			if err := g.e.st.close(); err != nil {
				return result{}, fmt.Errorf("tearing down set-up %d: %w", len(setupTimes), err)
			}
		}
		if g, err = setUpTimed(); err != nil {
			return result{}, err
		}
	}
	defer g.e.st.close() // on error paths; the success path closes and checks below
	warm, _ := g.measure(time.Duration(float64(dur) * warmShare))
	runtime.GC() // collect set-up and warm-up garbage before timing starts

	var total, plain *tally
	var elapsed time.Duration
	var lm map[string]metric
	if !traced {
		total, elapsed = g.measure(dur)
	} else {
		// Same stack, same workload: an untraced half, then a traced half.
		// Their throughput ratio is the tracing overhead.
		var plainEl time.Duration
		plain, plainEl = g.measure(dur / 2)
		before := snapshot(g.e.st.reg)
		tr.enable()
		total, elapsed = g.measure(dur / 2)
		tr.disable()
		after := snapshot(g.e.st.reg)
		a := analyze(tr.roots, tr.spans)
		late := append(append([]float64(nil), plain.late...), total.late...)
		_, lateTail := percentiles(late, 99)
		_, stored := g.e.st.residentKeys()
		lm = layerMetrics(layerInput{
			a: a, before: before, after: after, t: total,
			lateP99:     lateTail.Value,
			overhead:    ratio(float64(plain.ops)/plainEl.Seconds(), float64(total.ops)/elapsed.Seconds()),
			storedBytes: stored,
		})
		if a.mismatches > 0 {
			total.fail("trace_sum_mismatch")
		}
		path, err := writeSpans(outDir, sp.Name, seed, tr.roots, tr.spans, a)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(w, "# span dump %s (%d trips, %d spans)\n", path, len(tr.roots), len(tr.spans))
	}
	// End checks go to their own tally: they add to the failure count and
	// the stored-bytes account, not to the measured window.
	checks := newTally()
	g.finish(checks)
	if err := g.e.st.close(); err != nil {
		return result{}, fmt.Errorf("tearing down: %w", err)
	}
	for n := len(setupTimes); n > 0; n-- {
		r, err := setUpTimed()
		if err != nil {
			return result{}, err
		}
		if err := r.e.st.close(); err != nil {
			return result{}, fmt.Errorf("tearing down set-up %d: %w", len(setupTimes), err)
		}
	}
	sort.Float64s(setupTimes)
	setupS := setupTimes[len(setupTimes)/2]
	acct := newTally()
	for _, t := range []*tally{warm, total, plain, checks} {
		if t != nil {
			acct.merge(t)
		}
	}
	e2e, lines := endToEnd(sp, total, acct, elapsed, setupS, len(setupTimes))

	for _, l := range lines {
		fmt.Fprintln(w, "# "+l)
	}
	fmt.Fprintf(w, "# operations attempted=%d failed=%d op_fail_ratio=%.6g failures=%v restore_levels=%v\n",
		acct.attempted, acct.failed, ratio(float64(acct.failed), float64(acct.attempted)), acct.fails, acct.levels)
	out := result{Correct: acct.failed == 0, Attempted: acct.attempted, Failed: acct.failed, Metrics: e2e}
	if traced {
		for _, name := range sortedNames(lm) {
			fmt.Fprintln(w, "# layer "+fmtMetric(name, lm[name]))
		}
		out.Metrics = lm
	}
	if err := appendHistory(outDir, sp.Name, seed, dur, traced, host, out); err != nil {
		fmt.Fprintf(os.Stderr, "ckptbench: result history: %v\n", err)
	}
	return out, nil
}

func poolMB(pool [][]byte) float64 {
	var n int
	for _, p := range pool {
		n += len(p)
	}
	return float64(n) / 1e6
}

// endToEnd computes the end-to-end metrics from the clients' own samples
// in the calm half of the measured window t's windows, and the failure and stored-bytes account of
// the whole run, with a report line per metric giving each percentile's
// sample count and how many samples lie beyond it.
func endToEnd(sp spec, t, acct *tally, elapsed time.Duration, setupS float64, setups int) (map[string]metric, []string) {
	m := map[string]metric{}
	var lines []string
	el := elapsed.Seconds()
	put := func(name, unit string, v float64, note string) {
		m[name] = metric{v, unit}
		lines = append(lines, fmtMetric(name, m[name])+note)
	}
	keep := calm(t.timed, t.start, t.length)
	timed := func(kind int) []float64 { return latencies(t.timed, kind, keep, t.start, t.length) }
	lat := func(prefix string, samples []float64) {
		p50, tl := percentiles(samples, sp.TailQ)
		put(prefix+"_p50_ms", "ms", p50.Value, fmt.Sprintf("  (p50, n=%d, beyond=%d)", p50.N, p50.Beyond))
		put(prefix+"_tail_ms", "ms", tl.Value, fmt.Sprintf("  (p%g, n=%d, beyond=%d)", tl.Q, tl.N, tl.Beyond))
	}
	saveOps, saveBytes := windowRates(t.saveDone, keep, t.start, t.length)
	_, loadBytes := windowRates(t.loadDone, keep, t.start, t.length)
	note := fmt.Sprintf("  (calm %d of %d windows; %%d in %.2fs)", windows/2, windows, el)
	put("save_mb_s", "MB/s", saveBytes/1e6, fmt.Sprintf(note, t.saves)+" acked saves")
	put("save_ops_s", "1/s", saveOps, "")
	lat("save", timed(kindSave))
	put("restore_mb_s", "MB/s", loadBytes/1e6, fmt.Sprintf(note, t.loads)+" verified restores")
	lat("restore", timed(kindLoad))
	lat("async_ack", timed(kindAck))
	// The lag's distribution has one mode per pool item, and its median
	// falls between two of them, so a nearest-rank p50 jumps from mode to
	// mode between runs; the mean does not.
	lags := timed(kindLag)
	_, lagTail := percentiles(lags, sp.TailQ)
	put("async_store_lag_mean_ms", "ms", mean(lags), fmt.Sprintf("  (mean, n=%d)", len(lags)))
	put("async_store_lag_tail_ms", "ms", lagTail.Value, fmt.Sprintf("  (p%g, n=%d, beyond=%d)", lagTail.Q, lagTail.N, lagTail.Beyond))
	put("stored_bytes_per_user_byte", "ratio", ratio(float64(acct.stored), float64(acct.user)),
		fmt.Sprintf("  (%d stored / %d user bytes of acked checkpoints)", acct.stored, acct.user))
	put("peak_rss_mb", "MB", peakRSSMB(), "")
	put("op_ok_ratio", "ratio", 1-ratio(float64(acct.failed), float64(acct.attempted)), "")
	put("setup_s", "s", setupS, fmt.Sprintf("  (median of %d set-ups)", setups))
	return m, lines
}

// appendHistory appends the run, with its host calibration, to the
// result history, so later runs compare against runs from the same host.
func appendHistory(dir, workload string, seed uint64, dur time.Duration, traced bool, host hostInfo, out result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	rec := map[string]any{
		"time": time.Now().UTC().Format(time.RFC3339), "workload": workload, "seed": seed,
		"seconds": dur.Seconds(), "trace": traced, "host": host, "result": out,
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
