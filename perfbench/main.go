// Command perfbench is the repository's end-to-end benchmark. One process
// runs one named workload for a fixed host-time budget, checks every output
// it produces, and prints its metrics as a single JSON line:
//
//	go build -o .bench_build/perfbench ./perfbench   (or: bash perfbench/run.sh ...)
//	perfbench --workload grid-cold --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run. With
// --trace 1 it runs every repetition twice, untraced and then with timing
// wrappers around each layer boundary, checks that both produce identical
// simulated results, writes the spans, and reports the per-layer metrics.
// README.md in this directory maps each metric to its layer and workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workloads names every workload and its runner, in the order README.md
// documents them. A serial workload runs its operations one at a time on
// one P (GOMAXPROCS=1). Its simulations are CPU-bound: two at once need
// every CPU of a 2-vCPU host, so any load from outside the process slowed
// every operation, and with a second P the garbage collector's workers
// contend with the simulation whenever the host takes a CPU away.
var workloads = []struct {
	name   string
	run    func(b *bench) error
	serial bool
}{
	{"grid-cold", runGridCold, true},
	{"attack-audit", runAttackAudit, true},
	{"service-mix", runServiceMix, false},
}

// defaultSeed is the seed whose simulated-result digests are recorded in
// digests.json.
const defaultSeed = 1

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: grid-cold, attack-audit or service-mix")
		seed    = flag.Uint64("seed", defaultSeed, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 30, "host seconds the measured phase runs for")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced end-to-end run")
		outDir  = flag.String("out", ".bench_build", "directory for spans and the service's temporary disk cache")
	)
	flag.Parse()
	start := time.Now()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	b := &bench{
		seed: *seed, seconds: *seconds, traced: *trace == 1, sz: fullSize,
		outDir: *outDir, start: start, out: os.Stdout,
	}
	if err := run(b, *name); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes the named workload and prints the header, the informational
// lines and, last, the JSON result line.
func run(b *bench, name string) error {
	var fn func(*bench) error
	serial := false
	for _, w := range workloads {
		if w.name == name {
			fn, serial = w.run, w.serial
		}
	}
	if fn == nil {
		return fmt.Errorf("unknown workload %q (want grid-cold, attack-audit or service-mix)", name)
	}
	load := clients()
	if serial {
		load = 1
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	if b.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", b.seconds)
	}
	if b.seed == 0 {
		return errors.New("--seed must be non-zero")
	}
	b.name = name
	b.metrics = make(map[string]metric)
	if b.traced {
		b.tr = newTracer(name)
	}
	fmt.Fprintf(b.out, "# perfbench workload=%s seed=%d seconds=%g trace=%v go=%s GOMAXPROCS=%d nproc=%d clients=%d\n",
		name, b.seed, b.seconds, b.traced, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), load)
	if err := fn(b); err != nil {
		return err
	}
	if b.tr != nil {
		path, err := b.tr.write(filepath.Join(b.outDir, "spans"), b.seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(b.out, "# spans: %d written to %s\n", b.tr.len(), path)
	}
	return b.finish()
}

// bench is the state of one benchmark process.
type bench struct {
	name    string
	seed    uint64
	seconds float64
	traced  bool
	sz      size
	outDir  string
	start   time.Time
	out     io.Writer

	tr        *tracer
	digest    string // of the first repetition's simulated results
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]metric
}

// size scales every workload's inputs. The smoke test runs a tiny size;
// the digests in digests.json hold only at fullSize.
type size struct {
	gridAccesses, attackActs, svcAccesses uint64
	setupKeys                             int
}

var fullSize = size{gridAccesses: 20_000, attackActs: 50_000, svcAccesses: 10_000, setupKeys: 64}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// clients is the closed-loop concurrency of service-mix: at most two, and
// never more than the host's CPUs.
func clients() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// deadline is when the measured phase stops starting new repetitions.
func (b *bench) deadline(from time.Time) time.Time {
	return from.Add(time.Duration(b.seconds * float64(time.Second)))
}

// op records one attempted operation and whether it failed.
func (b *bench) op(failed bool) {
	b.attempted++
	if failed {
		b.failed++
	}
}

// problem records a failed output check. Checks that belong to one
// operation also call op(true); run-level checks only mark the run incorrect.
func (b *bench) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.problems) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	b.problems = append(b.problems, msg)
}

// note prints one informational line (never parsed, never gated).
func (b *bench) note(format string, args ...any) {
	fmt.Fprintf(b.out, "# "+format+"\n", args...)
}

// set records one metric. Only the metrics of the current mode (end-to-end
// when untraced, per-layer when traced) are printed.
func (b *bench) set(name string, value float64) {
	unit, ok := unitOf(name, b.traced)
	if !ok {
		panic("perfbench: metric " + name + " is not declared for this mode")
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		b.problem("metric %s is not finite (%v)", name, value)
		value = 0
	}
	b.metrics[name] = metric{Value: value, Unit: unit}
}

// finish checks that every declared metric was produced and prints the
// human-readable table and the JSON result line.
func (b *bench) finish() error {
	for _, d := range declared(b.traced) {
		if _, ok := b.metrics[d.name]; !ok {
			return fmt.Errorf("workload %s did not produce metric %s", b.name, d.name)
		}
	}
	if b.attempted == 0 {
		return fmt.Errorf("workload %s attempted no operation", b.name)
	}
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.metrics[n]
		fmt.Fprintf(b.out, "%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(b.out, "# attempted=%d failed=%d checks_failed=%d\n", b.attempted, b.failed, len(b.problems))
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(b.problems) == 0, b.attempted, b.failed, b.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(b.out, string(line))
	return err
}
