package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/svc"
)

// TestHelperDreamdServer is not a test: it is the child-process entry the
// crash test re-executes the test binary into, so a shard can be SIGKILLed
// without taking the test down with it.
func TestHelperDreamdServer(t *testing.T) {
	if os.Getenv("DREAMD_HELPER") != "1" {
		t.Skip("helper process entry, not a test")
	}
	args := strings.Split(os.Getenv("DREAMD_ARGS"), "\x1f")
	os.Exit(run(args, os.Stdout, os.Stderr, nil))
}

// startShard launches one real dreamd process sharing dir-based state with
// its siblings and returns its base URL and process handle.
func startShard(t *testing.T, id, cacheDir, campDir string, extra ...string) (string, *exec.Cmd) {
	t.Helper()
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-cache-dir", cacheDir,
		"-campaign-dir", campDir,
		"-shard-id", id,
		"-lease-ttl", "1s",
		"-workers", "1",
		"-journal", "",
	}, extra...)
	cmd := exec.Command(os.Args[0], "-test.run", "TestHelperDreamdServer")
	cmd.Env = append(os.Environ(), "DREAMD_HELPER=1", "DREAMD_ARGS="+strings.Join(args, "\x1f"))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	// The server prints "dreamd: listening on <addr> ..." once bound.
	sc := bufio.NewScanner(stdout)
	deadline := time.After(30 * time.Second)
	addrCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				rest := line[i+len("listening on "):]
				addrCh <- strings.Fields(rest)[0]
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return "http://" + addr, cmd
	case <-deadline:
		t.Fatalf("shard %s never came up", id)
		return "", nil
	}
}

func shardMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			var v float64
			if _, err := fmt.Sscanf(line[i+1:], "%g", &v); err == nil {
				m[line[:i]] = v
			}
		}
	}
	return m
}

// TestShardCrashRecovery kills one of two dreamd shards mid-campaign and
// requires the survivor to reclaim the dead shard's expired leases and finish
// the campaign with results byte-identical to in-process execution.
func TestShardCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	campDir := filepath.Join(dir, "campaign")

	t0 := time.Now()
	urlA, cmdA := startShard(t, "shard-a", cacheDir, campDir)
	urlB, _ := startShard(t, "shard-b", cacheDir, campDir)
	t.Logf("shards up at %v", time.Since(t0))

	// The PARA and MINT cells always act, so they simulate in full (seconds
	// each on one worker) even on a shard that could answer a silent cell
	// from its baseline's call log. They come first, so each shard's first
	// claims are acting cells.
	acting := map[string]bool{"para-nrr": true, "mint-nrr": true, "mint-dreamr": true}
	var cells []exp.CampaignCell
	for _, scheme := range []string{"para-nrr", "mint-nrr", "mint-dreamr", "base", "graphene-nrr", "moat", "abacus", "dreamc-set-assoc"} {
		cells = append(cells, exp.CampaignCell{
			Workload: "mcf", Scheme: scheme,
			TRH: 1000, Cores: 1, Accesses: 300_000, Seed: 0x5ead,
		})
	}

	client := &svc.CampaignClient{Endpoints: []string{urlA, urlB}, RetryRounds: 3}
	type outT struct{ out []exp.CellResult }
	done := make(chan outT, 1)
	go func() {
		done <- outT{client.ExecCells(context.Background(), cells)}
	}()

	// Kill A while it alone holds an uncompleted lease on an acting cell, as
	// the shared lease ledger shows: A then dies mid-simulation, however long
	// or short the other cells take, and only a steal can finish that cell.
	// (Two shards that claim a cell in the same instant may both win it; the
	// protocol runs such a cell twice, so a cell B also leased proves nothing.)
	waitUntil := time.Now().Add(time.Minute)
	for !holdsSoleLease(t, campDir, "shard-a", func(c int) bool { return acting[cells[c].Scheme] }) {
		if time.Now().After(waitUntil) {
			t.Fatal("shard A never held the only lease on an acting cell")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmdA.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmdA.Wait()
	t.Logf("killed A at %v", time.Since(t0))

	var res outT
	select {
	case res = <-done:
	case <-time.After(3 * time.Minute):
		t.Fatal("campaign did not finish after shard kill")
	}
	t.Logf("campaign done at %v", time.Since(t0))

	// Every cell resolved, each byte-identical to an in-process run.
	for i, r := range res.out {
		if r.Err != nil {
			t.Fatalf("cell %d: %v", i, r.Err)
		}
		want, err := exp.ExecCell(context.Background(), cells[i])
		if err != nil {
			t.Fatal(err)
		}
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(r.Res)
		if !bytes.Equal(wb, gb) {
			t.Errorf("cell %d (%s): sharded result differs from in-process", i, cells[i].Scheme)
		}
	}

	t.Logf("local verify done at %v", time.Since(t0))
	// The survivor must have stolen at least the lease A died holding.
	mb := shardMetrics(t, urlB)
	if mb[`dreamd_campaign_cells_total{event="stolen"}`] == 0 {
		t.Errorf("survivor stole no leases; metrics: %v", filterPrefix(mb, "dreamd_campaign"))
	}
	if mb[`dreamd_campaign_cells_total{event="completed"}`] == 0 {
		t.Error("survivor completed no cells")
	}
}

// holdsSoleLease reports whether owner holds the winning lease of an
// uncompleted cell that satisfies want and that no other shard ever leased,
// reading every campaign ledger in campDir. Torn lines (a writer mid-append)
// are skipped; the next poll re-reads them whole.
func holdsSoleLease(t *testing.T, campDir, owner string, want func(cell int) bool) bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(campDir, "*.leases.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		last := map[int]string{}
		shared, done := map[int]bool{}, map[int]bool{}
		for _, line := range bytes.Split(data, []byte("\n")) {
			var rec harness.LeaseRecord
			if json.Unmarshal(line, &rec) != nil {
				continue
			}
			switch rec.Type {
			case "lease":
				if prev, ok := last[rec.Cell]; ok && prev != rec.Owner {
					shared[rec.Cell] = true
				}
				last[rec.Cell] = rec.Owner
			case "done":
				done[rec.Cell] = true
			}
		}
		for c, o := range last {
			if o == owner && !shared[c] && !done[c] && want(c) {
				return true
			}
		}
	}
	return false
}

func filterPrefix(m map[string]float64, prefix string) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			out[k] = v
		}
	}
	return out
}
