package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tinySize keeps the smoke test to seconds while still exercising every
// layer of every workload.
var tinySize = size{gridAccesses: 1_500, attackActs: 4_000, svcAccesses: 1_000, setupKeys: 8}

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// runOnce runs one workload for a single repetition and returns its
// metrics and result digest, failing the test unless every check passed.
func runOnce(t *testing.T, workload string, seed uint64, traced bool, sz size) (map[string]metric, string) {
	t.Helper()
	var out bytes.Buffer
	b := &bench{seed: seed, seconds: 0.001, traced: traced, sz: sz,
		outDir: t.TempDir(), start: time.Now(), out: &out}
	if err := run(b, workload); err != nil {
		t.Fatalf("%s seed %d traced=%v: %v\n%s", workload, seed, traced, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int64
		Metrics           map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s seed %d traced=%v: correct=%v attempted=%d failed=%d problems=%q",
			workload, seed, traced, res.Correct, res.Attempted, res.Failed, b.problems)
	}
	return res.Metrics, b.digest
}

func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	// service-mix runs last: its service leaves the disk tier attached.
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, bf.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			got, _ := runOnce(t, w.name, 3, traced, tinySize)
			if len(got) != len(want) {
				t.Errorf("%s traced=%v printed %d metrics, BENCHMARK.json declares %d", w.name, traced, len(got), len(want))
			}
			for _, d := range want {
				if m, ok := got[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s printed as %+v (ok=%v), want unit %q", w.name, traced, d.Name, m, ok, d.Unit)
				}
			}
		}
		// A second seed generates different inputs, which pass every check.
		_, d1 := runOnce(t, w.name, 1, false, tinySize)
		_, d2 := runOnce(t, w.name, 2, false, tinySize)
		if d1 == "" || d1 == d2 {
			t.Errorf("%s: seeds 1 and 2 gave result digests %q and %q; want distinct", w.name, d1, d2)
		}
		// At full size, the default seed's results must match digests.json.
		if !testing.Short() {
			runOnce(t, w.name, defaultSeed, false, fullSize)
		}
	}
}
