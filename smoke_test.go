package apknn_test

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
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestSmokeBinaries compiles and runs every command and the quickstart
// examples end to end with tiny inputs, asserting the exit status and the
// key lines of their output — the check that the user-facing entry points
// actually work, not just compile.
func TestSmokeBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests build binaries; skipped in -short")
	}
	bindir := t.TempDir()
	cases := []struct {
		name string
		pkg  string
		args []string
		want []string
	}{
		{
			name: "apknn",
			pkg:  "./cmd/apknn",
			args: []string{"-n", "64", "-dim", "16", "-q", "2", "-k", "2", "-backend", "fast"},
			want: []string{
				"dataset: 64 vectors x 16 bits, 1 board configuration(s)",
				"AP result agreement with exact CPU scan: 2/2 queries",
			},
		},
		{
			name: "apknn-sim-sharded",
			pkg:  "./cmd/apknn",
			args: []string{"-n", "40", "-dim", "16", "-q", "2", "-k", "2", "-capacity", "10", "-boards", "2"},
			want: []string{
				"4 board configuration(s)",
				"across 2 board(s)",
				"AP result agreement with exact CPU scan: 2/2 queries",
				"modeled ap time",
			},
		},
		{
			name: "apknn-backend-gpu",
			pkg:  "./cmd/apknn",
			args: []string{"-n", "64", "-dim", "16", "-q", "2", "-k", "2", "-backend", "gpu", "-gpu", "tegrak1"},
			want: []string{
				"AP result agreement with exact CPU scan: 2/2 queries",
				"modeled gpu time",
			},
		},
		{
			name: "apknn-backend-approx",
			pkg:  "./cmd/apknn",
			args: []string{"-n", "200", "-dim", "16", "-q", "2", "-k", "2", "-backend", "approx", "-index", "kmeans", "-capacity", "32"},
			want: []string{
				"on backend \"approx\"",
				"recall@2 vs exact CPU scan:",
			},
		},
		{
			name: "apbench",
			pkg:  "./cmd/apbench",
			args: []string{"-table", "1"},
			want: []string{"Table I: evaluated platforms", "Automata Processor"},
		},
		{
			name: "apbench-backends",
			pkg:  "./cmd/apbench",
			args: []string{"-exp", "backends"},
			want: []string{
				"Cross-platform backends",
				"ap (Gen 2 sim)",
				"fpga (Kintex-7 model)",
				"approx (MPLSH)",
			},
		},
		{
			name: "apcompile",
			pkg:  "./cmd/apcompile",
			args: []string{"-n", "8", "-dim", "16", "-verify"},
			want: []string{
				"design: 8 vectors x 16 dims", "STEs",
				"verify: AP backend matches exact scan",
			},
		},
		{
			name: "aptrace",
			pkg:  "./cmd/aptrace",
			args: nil,
			want: []string{"Fig. 3 trace: vector=1011 query=1001"},
		},
		{
			name: "apknn-timeout",
			pkg:  "./cmd/apknn",
			args: []string{"-n", "64", "-dim", "16", "-q", "2", "-k", "2", "-backend", "fast", "-timeout", "30s"},
			want: []string{"AP result agreement with exact CPU scan: 2/2 queries"},
		},
		{
			name: "apbench-churn",
			pkg:  "./cmd/apbench",
			args: []string{"-exp", "churn"},
			want: []string{
				"Live index churn: insert:query ratio x compaction threshold",
				"modeled QPS = queries / modeled platform time",
			},
		},
		{
			name: "live",
			pkg:  "./examples/live",
			args: nil,
			want: []string{
				"at distance 0",
				"still returned: false",
				"generation 1",
			},
		},
		{
			name: "cluster",
			pkg:  "./examples/cluster",
			args: nil,
			want: []string{
				"scatter-gather vs single-index exact scan: 8/8 queries byte-identical",
				"after the kill: 8/8 queries still byte-identical",
				"3/4 replicas healthy",
			},
		},
		{
			name: "quickstart",
			pkg:  "./examples/quickstart",
			args: nil,
			want: []string{"board configurations used: 1", "modeled AP execution time"},
		},
		{
			name: "sharded",
			pkg:  "./examples/sharded",
			args: nil,
			want: []string{"sharded across 4 boards", "modeled speedup"},
		},
		{
			name: "serve",
			pkg:  "./examples/serve",
			args: nil,
			want: []string{
				"0 mismatches vs exact scan",
				"mean realized batch",
				"drained and shut down cleanly",
			},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			bin := filepath.Join(bindir, c.name)
			build := exec.Command("go", "build", "-o", bin, c.pkg)
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("go build %s: %v\n%s", c.pkg, err, out)
			}
			out, err := exec.Command(bin, c.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("%s %v: %v\n%s", c.name, c.args, err, out)
			}
			for _, want := range c.want {
				if !strings.Contains(string(out), want) {
					t.Errorf("%s output missing %q:\n%s", c.name, want, out)
				}
			}
		})
	}
}

// TestSmokeAptrace runs the cycle-trace tool in both its shapes — the
// single-vector Fig. 3 macro and the two-vector Fig. 4 layout — and asserts
// the trace header, the per-cycle rows, and the report line that names the
// cycle where the inverted Hamming distance fires.
func TestSmokeAptrace(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests build binaries; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "aptrace")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/aptrace").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/aptrace: %v\n%s", err, out)
	}
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{
			name: "fig3",
			args: nil,
			want: []string{
				"Fig. 3 trace: vector=1011 query=1001",
				"t= 1 sym=SOF",
				"sym=EOF",
				"report: vector 0 at cycle 8",
				"Hamming distance 1",
			},
		},
		{
			name: "fig4",
			args: []string{"-two"},
			want: []string{
				"Fig. 4 trace: A=1011 B=0000 query=1001",
				"v1.ihd=",
				"report: vector 0",
				"report: vector 1",
			},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			out, err := exec.Command(bin, c.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("aptrace %v: %v\n%s", c.args, err, out)
			}
			for _, want := range c.want {
				if !strings.Contains(string(out), want) {
					t.Errorf("aptrace %v output missing %q:\n%s", c.args, want, out)
				}
			}
		})
	}
}

// TestSmokeDatasetSaveLoad round-trips a dataset through the binary format
// via the apknn CLI: -save one run, -load the next, same search results.
func TestSmokeDatasetSaveLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests build binaries; skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "apknn")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/apknn").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/apknn: %v\n%s", err, out)
	}
	path := filepath.Join(dir, "ds.apds")
	out1, err := exec.Command(bin, "-n", "128", "-dim", "16", "-q", "2", "-k", "2", "-backend", "fast", "-save", path).CombinedOutput()
	if err != nil {
		t.Fatalf("apknn -save: %v\n%s", err, out1)
	}
	out2, err := exec.Command(bin, "-q", "2", "-k", "2", "-backend", "fast", "-load", path).CombinedOutput()
	if err != nil {
		t.Fatalf("apknn -load: %v\n%s", err, out2)
	}
	for _, out := range [][]byte{out1, out2} {
		if !strings.Contains(string(out), "dataset: 128 vectors x 16 bits") {
			t.Fatalf("unexpected dataset line:\n%s", out)
		}
		if !strings.Contains(string(out), "agreement with exact CPU scan: 2/2") {
			t.Fatalf("search disagreement:\n%s", out)
		}
	}
}

// TestSmokeApserveLive boots apserve -live and drives the mutation
// lifecycle over real HTTP: insert a vector, find it at distance zero,
// delete it, and confirm it stops appearing.
// logAddr extracts the addr= attribute from a structured (slog text) boot
// line whose msg= matches, "" for any other line — how the smoke tests learn
// the port a ":0" listener actually bound.
func logAddr(line, msg string) string {
	if !strings.Contains(line, "msg="+msg) {
		return ""
	}
	i := strings.Index(line, "addr=")
	if i < 0 {
		return ""
	}
	return strings.Fields(line[i+len("addr="):])[0]
}

func TestSmokeApserveLive(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests build binaries; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "apserve")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/apserve").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/apserve: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-n", "1024", "-dim", "16",
		"-live", "-compact-threshold", "4", "-compact-interval", "0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cmd.Process.Kill() }()
	var addr string
	logs := &bytes.Buffer{}
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		logs.WriteString(line + "\n")
		if a := logAddr(line, "serving"); a != "" {
			addr = a
			break
		}
	}
	if addr == "" {
		t.Fatalf("apserve never logged its address:\n%s", logs.String())
	}
	go func() {
		for sc.Scan() {
		}
	}()

	base := "http://" + addr
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	post := func(path, body string) (int, map[string]interface{}) {
		t.Helper()
		req, _ := http.NewRequestWithContext(ctx, "POST", base+path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var decoded map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
			t.Fatalf("POST %s: bad JSON: %v", path, err)
		}
		return resp.StatusCode, decoded
	}

	vector := strings.Repeat("10", 8)
	code, ins := post("/v1/insert", fmt.Sprintf(`{"vector":%q}`, vector))
	if code != 200 {
		t.Fatalf("insert: HTTP %d: %v", code, ins)
	}
	id := int(ins["id"].(float64))
	if id != 1024 {
		t.Fatalf("inserted id = %d, want 1024", id)
	}
	found := func() bool {
		t.Helper()
		code, res := post("/v1/search", fmt.Sprintf(`{"query":%q,"k":3}`, vector))
		if code != 200 {
			t.Fatalf("search: HTTP %d: %v", code, res)
		}
		for _, nb := range res["neighbors"].([]interface{}) {
			m := nb.(map[string]interface{})
			if int(m["id"].(float64)) == id {
				if m["dist"].(float64) != 0 {
					t.Fatalf("inserted vector at distance %v", m["dist"])
				}
				return true
			}
		}
		return false
	}
	if !found() {
		t.Fatal("inserted vector not returned")
	}
	if code, del := post("/v1/delete", fmt.Sprintf(`{"id":%d}`, id)); code != 200 {
		t.Fatalf("delete: HTTP %d: %v", code, del)
	}
	if found() {
		t.Fatal("deleted vector still returned")
	}
	if code, del := post("/v1/delete", fmt.Sprintf(`{"id":%d}`, id)); code != 404 {
		t.Fatalf("double delete: HTTP %d: %v", code, del)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("apserve -live exited dirty: %v\n%s", err, logs.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("apserve -live did not drain after SIGTERM\n%s", logs.String())
	}
}

// TestSmokeApserve boots the real apserve binary on an ephemeral port,
// exercises every endpoint over real HTTP, then sends SIGTERM and asserts
// a clean drain — the full serving lifecycle, binary edition.
func TestSmokeApserve(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests build binaries; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "apserve")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/apserve").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/apserve: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-n", "2048", "-dim", "16", "-batch-window", "2ms")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cmd.Process.Kill() }()

	// The startup log names the bound address; everything after is drained
	// in the background so the server never blocks on a full pipe.
	var addr string
	logs := &bytes.Buffer{}
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		logs.WriteString(line + "\n")
		if a := logAddr(line, "serving"); a != "" {
			addr = a
			break
		}
	}
	if addr == "" {
		t.Fatalf("apserve never logged its address:\n%s", logs.String())
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for sc.Scan() {
			logs.WriteString(sc.Text() + "\n")
		}
	}()

	base := "http://" + addr
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	get := func(path string, into interface{}) {
		t.Helper()
		req, _ := http.NewRequestWithContext(ctx, "GET", base+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
	}
	var health struct {
		Status  string `json:"status"`
		Backend string `json:"backend"`
	}
	get("/healthz", &health)
	if health.Status != "ok" || health.Backend != "sharded" {
		t.Fatalf("healthz = %+v", health)
	}

	query := strings.Repeat("10", 8) // 16-dim bit string
	body := fmt.Sprintf(`{"query":%q,"k":3}`, query)
	req, _ := http.NewRequestWithContext(ctx, "POST", base+"/v1/search", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var search struct {
		Neighbors []struct {
			ID   int `json:"id"`
			Dist int `json:"dist"`
		} `json:"neighbors"`
		FlushSize int `json:"flush_size"`
	}
	err = json.NewDecoder(resp.Body).Decode(&search)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("POST /v1/search: HTTP %d, decode err %v", resp.StatusCode, err)
	}
	if len(search.Neighbors) != 3 || search.FlushSize < 1 {
		t.Fatalf("search response = %+v", search)
	}

	var stats struct {
		Serving struct {
			Requests int64 `json:"requests"`
			Flushes  int64 `json:"flushes"`
		} `json:"serving"`
		ModeledTimeNS int64 `json:"modeled_time_ns"`
	}
	get("/v1/stats", &stats)
	if stats.Serving.Requests != 1 || stats.Serving.Flushes != 1 || stats.ModeledTimeNS <= 0 {
		t.Fatalf("stats = %+v", stats)
	}

	// Graceful shutdown: SIGTERM drains and exits 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	// Finish reading stderr before Wait: Wait closes the pipe and would
	// race the drain goroutine out of the final log lines.
	go func() { <-drained; done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("apserve exited dirty: %v\n%s", err, logs.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("apserve did not drain after SIGTERM\n%s", logs.String())
	}
	if !strings.Contains(logs.String(), "msg=stopped") || !strings.Contains(logs.String(), "requests=1") {
		t.Errorf("final drain log missing served-requests line:\n%s", logs.String())
	}
}

// TestSmokeApserveCrashRecovery is the durability lifecycle, binary
// edition: an apserve -live -data-dir node and a never-crashed mirror
// receive identical churn over HTTP, the durable node is kill -9'd with no
// chance to flush or drain, and its restart over the same directory must
// recover the exact pre-crash index — same live count, same next global ID,
// byte-identical search results against the mirror.
func TestSmokeApserveCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests build binaries; skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "apserve")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/apserve").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/apserve: %v\n%s", err, out)
	}
	dataDir := filepath.Join(dir, "state")
	// A low compaction threshold so the churn below crosses snapshot
	// boundaries: recovery then exercises snapshot-load plus log-replay, not
	// just replay of a virgin log.
	nodeArgs := []string{"-n", "256", "-dim", "16", "-seed", "7",
		"-live", "-compact-threshold", "8", "-compact-interval", "0"}
	durArgs := append(nodeArgs, "-data-dir", dataDir, "-fsync", "always")
	durAddr, durCmd := startServeNode(t, bin, durArgs...)
	mirAddr, _ := startServeNode(t, bin, nodeArgs...)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	post := func(addr, path, body string) (int, map[string]interface{}) {
		t.Helper()
		req, _ := http.NewRequestWithContext(ctx, "POST", "http://"+addr+path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST %s%s: %v", addr, path, err)
		}
		defer resp.Body.Close()
		var decoded map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
			t.Fatalf("POST %s%s: bad JSON: %v", addr, path, err)
		}
		return resp.StatusCode, decoded
	}
	// Identical churn on both nodes: 24 inserts with a deterministic bit
	// pattern, every third pre-seeded vector of the first 24 deleted.
	both := []string{durAddr, mirAddr}
	for i := 0; i < 24; i++ {
		vec := fmt.Sprintf("%016b", (i*2654435761)%(1<<16))
		for _, addr := range both {
			code, res := post(addr, "/v1/insert", fmt.Sprintf(`{"vector":%q}`, vec))
			if code != 200 {
				t.Fatalf("insert %d on %s: HTTP %d: %v", i, addr, code, res)
			}
			if id := int(res["id"].(float64)); id != 256+i {
				t.Fatalf("insert %d on %s: id %d, want %d", i, addr, id, 256+i)
			}
		}
	}
	for id := 0; id < 24; id += 3 {
		for _, addr := range both {
			if code, res := post(addr, "/v1/delete", fmt.Sprintf(`{"id":%d}`, id)); code != 200 {
				t.Fatalf("delete %d on %s: HTTP %d: %v", id, addr, code, res)
			}
		}
	}

	// kill -9: no drain, no flush, no goodbye.
	if err := durCmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = durCmd.Wait()

	// Reboot over the same directory. The synthetic seed flags are repeated
	// but must be ignored: the directory is authoritative.
	backAddr, _ := startServeNode(t, bin, durArgs...)

	var stats struct {
		Backend struct {
			Durability *struct {
				Recovered       bool  `json:"recovered"`
				ReplayedRecords int64 `json:"replayed_records"`
			} `json:"durability"`
		} `json:"backend"`
	}
	req, _ := http.NewRequestWithContext(ctx, "GET", "http://"+backAddr+"/v1/stats", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil || stats.Backend.Durability == nil {
		t.Fatalf("restarted stats missing durability block (err %v)", err)
	}
	if !stats.Backend.Durability.Recovered {
		t.Fatalf("restart did not report recovery: %+v", stats.Backend.Durability)
	}

	// Probe searches must be byte-identical to the never-crashed mirror.
	for qi := 0; qi < 4; qi++ {
		query := fmt.Sprintf("%016b", (qi*40503+11)%(1<<16))
		body := fmt.Sprintf(`{"query":%q,"k":6}`, query)
		code1, got := post(backAddr, "/v1/search", body)
		code2, want := post(mirAddr, "/v1/search", body)
		if code1 != 200 || code2 != 200 {
			t.Fatalf("probe %d: HTTP %d / %d", qi, code1, code2)
		}
		gotN, wantN := got["neighbors"].([]interface{}), want["neighbors"].([]interface{})
		if len(gotN) != len(wantN) {
			t.Fatalf("probe %d: %d neighbors, mirror has %d", qi, len(gotN), len(wantN))
		}
		for j := range gotN {
			g, w := gotN[j].(map[string]interface{}), wantN[j].(map[string]interface{})
			if g["id"] != w["id"] || g["dist"] != w["dist"] {
				t.Fatalf("probe %d rank %d: recovered (%v,%v), mirror (%v,%v)",
					qi, j, g["id"], g["dist"], w["id"], w["dist"])
			}
		}
	}
	// The ID watermark survived: the next insert on both nodes must assign
	// the same global ID even though deletes shrank the live count.
	vec := strings.Repeat("01", 8)
	_, insGot := post(backAddr, "/v1/insert", fmt.Sprintf(`{"vector":%q}`, vec))
	_, insWant := post(mirAddr, "/v1/insert", fmt.Sprintf(`{"vector":%q}`, vec))
	if insGot["id"] != insWant["id"] {
		t.Fatalf("post-recovery insert id %v, mirror %v", insGot["id"], insWant["id"])
	}
}

// startServeNode boots one apserve binary on an ephemeral port and returns
// its bound address and process handle (for mid-test kills); the process
// is also killed via t.Cleanup.
func startServeNode(t *testing.T, bin string, args ...string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill() })
	logs := &bytes.Buffer{}
	sc := bufio.NewScanner(stderr)
	var addr string
	for sc.Scan() {
		line := sc.Text()
		logs.WriteString(line + "\n")
		if a := logAddr(line, "serving"); a != "" {
			addr = a
			break
		}
	}
	if addr == "" {
		t.Fatalf("%v never logged its address:\n%s", cmd.Args, logs.String())
	}
	go func() {
		for sc.Scan() {
		}
	}()
	return addr, cmd
}

// TestSmokeAprouter is the cluster lifecycle, binary edition: three apserve
// nodes (two shards, the first replicated), an aprouter resolving shard
// bases by probing them, searches and tail-shard inserts through the
// router, a replica killed mid-run with service intact, then a SIGTERM
// drain.
func TestSmokeAprouter(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests build binaries; skipped in -short")
	}
	dir := t.TempDir()
	apserveBin := filepath.Join(dir, "apserve")
	aprouterBin := filepath.Join(dir, "aprouter")
	for pkg, bin := range map[string]string{"./cmd/apserve": apserveBin, "./cmd/aprouter": aprouterBin} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	// Shard 0 is replicated: same seed, same size, identical data.
	nodeArgs := []string{"-n", "1024", "-dim", "16", "-live", "-compact-interval", "0"}
	shard0a, _ := startServeNode(t, apserveBin, append(nodeArgs, "-seed", "100", "-node-id", "shard0-a")...)
	shard0b, shard0bCmd := startServeNode(t, apserveBin, append(nodeArgs, "-seed", "100", "-node-id", "shard0-b")...)
	shard1, _ := startServeNode(t, apserveBin, append(nodeArgs, "-seed", "200", "-node-id", "shard1-a")...)

	manifest := filepath.Join(dir, "cluster.json")
	router := exec.Command(aprouterBin, "-addr", "127.0.0.1:0",
		"-shards", fmt.Sprintf("%s,%s;%s", shard0a, shard0b, shard1),
		"-hedge", "5ms", "-probe-interval", "200ms", "-write-manifest", manifest)
	rerr, err := router.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = router.Process.Kill() }()
	// rlogs is appended by the drain goroutine while failure paths read it,
	// so every access holds the mutex.
	var (
		rlogsMu sync.Mutex
		rlogs   bytes.Buffer
	)
	logLine := func(line string) {
		rlogsMu.Lock()
		rlogs.WriteString(line + "\n")
		rlogsMu.Unlock()
	}
	logText := func() string {
		rlogsMu.Lock()
		defer rlogsMu.Unlock()
		return rlogs.String()
	}
	rsc := bufio.NewScanner(rerr)
	var raddr string
	for rsc.Scan() {
		line := rsc.Text()
		logLine(line)
		if a := logAddr(line, "routing"); a != "" {
			raddr = a
			break
		}
	}
	if raddr == "" {
		t.Fatalf("aprouter never logged its address:\n%s", logText())
	}
	go func() {
		for rsc.Scan() {
			logLine(rsc.Text())
		}
	}()

	base := "http://" + raddr
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	call := func(method, path, body string) (int, map[string]interface{}) {
		t.Helper()
		var rd *strings.Reader
		if body == "" {
			rd = strings.NewReader("")
		} else {
			rd = strings.NewReader(body)
		}
		req, _ := http.NewRequestWithContext(ctx, method, base+path, rd)
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		var decoded map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
			t.Fatalf("%s %s: bad JSON: %v", method, path, err)
		}
		return resp.StatusCode, decoded
	}

	// The recorded manifest carries the probed bases: 0 and 1024.
	mbuf, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var mjson struct {
		Shards []struct {
			Base     int      `json:"base"`
			Replicas []string `json:"replicas"`
		} `json:"shards"`
		Dim int `json:"dim"`
	}
	if err := json.Unmarshal(mbuf, &mjson); err != nil {
		t.Fatal(err)
	}
	if len(mjson.Shards) != 2 || mjson.Shards[0].Base != 0 || mjson.Shards[1].Base != 1024 ||
		len(mjson.Shards[0].Replicas) != 2 || mjson.Dim != 16 {
		t.Fatalf("recorded manifest = %s", mbuf)
	}

	query := strings.Repeat("10", 8)
	if code, res := call("GET", "/healthz", ""); code != 200 {
		t.Fatalf("healthz: HTTP %d: %v", code, res)
	}
	// The probed manifest dim lets the router refuse a wrong-length query
	// locally instead of scattering it.
	if code, res := call("POST", "/v1/search", `{"query":"1010","k":5}`); code != 400 {
		t.Fatalf("wrong-dim search: HTTP %d: %v, want 400", code, res)
	}
	code, res := call("POST", "/v1/search", fmt.Sprintf(`{"query":%q,"k":5}`, query))
	if code != 200 || len(res["neighbors"].([]interface{})) != 5 {
		t.Fatalf("search: HTTP %d: %v", code, res)
	}
	// Inserts route to the tail shard (one replica): global ID = 1024+1024.
	code, ins := call("POST", "/v1/insert", fmt.Sprintf(`{"vector":%q}`, query))
	if code != 200 || int(ins["id"].(float64)) != 2048 || int(ins["acked"].(float64)) != 1 {
		t.Fatalf("insert: HTTP %d: %v", code, ins)
	}
	code, res = call("POST", "/v1/search", fmt.Sprintf(`{"query":%q,"k":1}`, query))
	if code != 200 {
		t.Fatalf("search after insert: HTTP %d: %v", code, res)
	}
	if nb := res["neighbors"].([]interface{})[0].(map[string]interface{}); int(nb["id"].(float64)) != 2048 || nb["dist"].(float64) != 0 {
		t.Fatalf("inserted vector not first: %v", res)
	}

	// Kill the shard-0 replica; the router must keep answering.
	if err := shard0bCmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond) // a probe pass ejects it
	for i := 0; i < 3; i++ {
		code, res = call("POST", "/v1/search", fmt.Sprintf(`{"query":%q,"k":5}`, query))
		if code != 200 || len(res["neighbors"].([]interface{})) != 5 {
			t.Fatalf("search %d after replica death: HTTP %d: %v", i, code, res)
		}
	}
	code, st := call("GET", "/v1/stats", "")
	if code != 200 {
		t.Fatalf("stats: HTTP %d: %v", code, st)
	}
	cl := st["cluster"].(map[string]interface{})
	if cl["healthy"].(float64) != 2 || cl["replicas"].(float64) != 3 {
		t.Fatalf("cluster stats after kill: %v", cl)
	}

	if err := router.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- router.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("aprouter exited dirty: %v\n%s", err, logText())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("aprouter did not drain after SIGTERM\n%s", logText())
	}
}
