package apknn_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

// The smoke tests build the real binaries and drive them across a process
// boundary: what only that boundary shows — flags, signals, logs, the
// link-time version stamp — is asserted here; the behaviour behind each
// endpoint is held by the in-process suites of internal/serve and
// internal/cluster.

// smokeVersion is stamped into every binary the smoke tests build, so the
// -version flag and the apknn_build_info series can be checked against it.
const smokeVersion = "smoke-stamp"

// query16 is a 16-dimension bit string, the width every smoke node serves.
var query16 = strings.Repeat("10", 8)

// buildBinary compiles pkg into dir under the smokeVersion stamp and returns
// the binary's path. It skips the test in -short mode.
func buildBinary(t *testing.T, dir, pkg string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("smoke tests build binaries; skipped in -short")
	}
	bin := filepath.Join(dir, filepath.Base(pkg))
	out, err := exec.Command("go", "build", "-ldflags", "-X repro/internal/obs.Version="+smokeVersion,
		"-o", bin, pkg).CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// TestSmokeBinaries compiles and runs every command and every example end
// to end with tiny inputs, asserting the exit status and the
// key lines of their output — the check that the user-facing entry points
// actually work, not just compile.
func TestSmokeBinaries(t *testing.T) {
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
			name: "dedup",
			pkg:  "./examples/dedup",
			args: nil,
			want: []string{"detection accuracy: 20/20"},
		},
		{
			name: "docsearch",
			pkg:  "./examples/docsearch",
			args: nil,
			want: []string{"partial-reconfiguration search matched the exact scan on 12/12 queries"},
		},
		{
			name: "imagesearch",
			pkg:  "./examples/imagesearch",
			args: nil,
			want: []string{"scene precision@5: 100.0%"},
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
			bin := buildBinary(t, bindir, c.pkg)
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
	bin := buildBinary(t, t.TempDir(), "./cmd/aptrace")
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
	dir := t.TempDir()
	bin := buildBinary(t, dir, "./cmd/apknn")
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

// proc is one serving binary booted on an ephemeral port, its stderr log
// collected for assertions and failure messages.
type proc struct {
	addr string // host:port named by the boot line
	cmd  *exec.Cmd
	// wait reaps the process once its stderr is drained (Wait closes the
	// pipe, so it must not race the reader); it runs once.
	wait func() error

	mu   sync.Mutex
	logs bytes.Buffer
}

// boot starts bin on 127.0.0.1:0 with args and returns once its log line
// msg=<ready> names the bound address. The process is killed and reaped on
// cleanup.
func boot(t *testing.T, bin, ready string, args ...string) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	eof := make(chan struct{})
	p.wait = sync.OnceValue(func() error { <-eof; return p.cmd.Wait() })
	t.Cleanup(func() { _ = p.cmd.Process.Kill(); _ = p.wait() })
	addr := make(chan string, 1)
	go func() {
		defer close(eof)
		defer close(addr)
		sc := bufio.NewScanner(stderr)
		for found := false; sc.Scan(); {
			p.mu.Lock()
			p.logs.WriteString(sc.Text() + "\n")
			p.mu.Unlock()
			if a := logAddr(sc.Text(), ready); a != "" && !found {
				addr <- a
				found = true
			}
		}
	}()
	if p.addr = <-addr; p.addr == "" {
		t.Fatalf("%v exited without logging msg=%s:\n%s", p.cmd.Args, ready, p.log())
	}
	return p
}

func (p *proc) url(path string) string { return "http://" + p.addr + path }

func (p *proc) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.logs.String()
}

// stop sends SIGTERM and requires a drain and a clean exit within 30s.
func (p *proc) stop(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%v exited dirty after SIGTERM: %v\n%s", p.cmd.Args, err, p.log())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%v did not drain after SIGTERM\n%s", p.cmd.Args, p.log())
	}
}

// kill is kill -9: no drain, no flush, no goodbye.
func (p *proc) kill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = p.wait()
}

var smokeClient = &http.Client{Timeout: 30 * time.Second}

// call sends one request with a JSON body ("" for none) and the given header
// key/value pairs, decodes a JSON answer into out unless out is nil, and
// returns the status.
func call(t *testing.T, method, url, body string, out interface{}, header ...string) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := smokeClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: HTTP %d, bad JSON: %v", method, url, resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

// eventually polls cond until it holds, failing the test after 10s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for !cond() {
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		case <-tick.C:
		}
	}
}

// TestSmokeApserve boots the real apserve binary with the micro-batching and
// SLO admission flags, exercises health, search and stats over real HTTP,
// then sends SIGTERM and asserts a clean drain and its final log line.
func TestSmokeApserve(t *testing.T) {
	bin := buildBinary(t, t.TempDir(), "./cmd/apserve")
	node := boot(t, bin, "serving", "-n", "2048", "-dim", "16", "-batch-window", "2ms",
		"-slo-p99", "1ms", "-max-inflight", "8", "-max-flushes", "1")

	var health serve.HealthResponse
	if code := call(t, "GET", node.url("/healthz"), "", &health); code != 200 ||
		health.Status != "ok" || health.Backend != "sharded" {
		t.Fatalf("healthz: HTTP %d %+v", code, health)
	}
	var search serve.SearchResponse
	code := call(t, "POST", node.url("/v1/search"), fmt.Sprintf(`{"query":%q,"k":3}`, query16), &search)
	if code != 200 || len(search.Neighbors) != 3 || search.FlushSize < 1 {
		t.Fatalf("search: HTTP %d %+v", code, search)
	}
	var stats serve.StatsResponse
	call(t, "GET", node.url("/v1/stats"), "", &stats)
	if stats.Serving.Requests != 1 || stats.Serving.Flushes != 1 || stats.ModeledTimeNS <= 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// The flags reached the controller: an idle node sits at the static cap.
	if slo := stats.Serving.SLO; slo == nil || slo.TargetP99NS != int64(time.Millisecond) ||
		slo.Limit < 1 || slo.Limit > 8 {
		t.Fatalf("serving.slo = %+v, want a 1ms target and a limit in [1, 8]", slo)
	}

	node.stop(t)
	if logs := node.log(); !strings.Contains(logs, "msg=stopped") || !strings.Contains(logs, "requests=1") {
		t.Errorf("final drain log missing served-requests line:\n%s", logs)
	}
}

// TestSmokeApserveLive boots apserve -live and drives the mutation
// lifecycle over real HTTP: delete a base vector and confirm it stops
// appearing, insert a vector, find it at distance zero, delete it, confirm
// it stops appearing and that a second delete is a 404, then a SIGTERM
// drain. It runs on the default backend, whose kernel refuses a tombstone
// at its heap, and on the simulated ap board at a small n, whose host drops
// a tombstone's reports as it decodes them.
func TestSmokeApserveLive(t *testing.T) {
	bin := buildBinary(t, t.TempDir(), "./cmd/apserve")
	for _, c := range []struct {
		name string
		n    int
		args []string
	}{{"default", 1024, nil}, {"ap", 64, []string{"-backend", "ap"}}} {
		t.Run(c.name, func(t *testing.T) {
			args := append([]string{"-n", fmt.Sprint(c.n), "-dim", "16",
				"-live", "-compact-threshold", "4", "-compact-interval", "0"}, c.args...)
			smokeLive(t, boot(t, bin, "serving", args...), c.n)
		})
	}
}

func smokeLive(t *testing.T, node *proc, n int) {
	nearest := func() []serve.Neighbor {
		t.Helper()
		var res serve.SearchResponse
		if code := call(t, "POST", node.url("/v1/search"), fmt.Sprintf(`{"query":%q,"k":3}`, query16), &res); code != 200 || len(res.Neighbors) != 3 {
			t.Fatalf("search: HTTP %d, %d neighbors", code, len(res.Neighbors))
		}
		return res.Neighbors
	}
	found := func(id int) *serve.Neighbor {
		for _, nb := range nearest() {
			if nb.ID == id {
				return &nb
			}
		}
		return nil
	}
	baseID := nearest()[0].ID
	if code := call(t, "POST", node.url("/v1/delete"), fmt.Sprintf(`{"id":%d}`, baseID), nil); code != 200 {
		t.Fatalf("delete base vector %d: HTTP %d", baseID, code)
	}
	if found(baseID) != nil {
		t.Fatalf("deleted base vector %d still returned", baseID)
	}

	var ins serve.InsertResponse
	if code := call(t, "POST", node.url("/v1/insert"), fmt.Sprintf(`{"vector":%q}`, query16), &ins); code != 200 || ins.ID != n {
		t.Fatalf("insert: HTTP %d, id %d, want id %d", code, ins.ID, n)
	}
	if nb := found(ins.ID); nb == nil || nb.Dist != 0 {
		t.Fatalf("inserted vector returned as %v, want distance 0", nb)
	}
	del := fmt.Sprintf(`{"id":%d}`, ins.ID)
	if code := call(t, "POST", node.url("/v1/delete"), del, nil); code != 200 {
		t.Fatalf("delete: HTTP %d", code)
	}
	if found(ins.ID) != nil || found(baseID) != nil {
		t.Fatal("deleted vector returned")
	}
	if code := call(t, "POST", node.url("/v1/delete"), del, nil); code != 404 {
		t.Fatalf("double delete: HTTP %d, want 404", code)
	}
	var stats serve.StatsResponse
	call(t, "GET", node.url("/v1/stats"), "", &stats)
	if l := stats.Backend.Live; l == nil || l.Inserts != 1 || l.Deletes != 2 {
		t.Fatalf("backend.live = %+v, want 1 insert and 2 deletes", l)
	}
	node.stop(t)
}

// TestSmokeApserveCrashRecovery is the durability lifecycle, binary
// edition: an apserve -live -data-dir node and a never-crashed mirror
// receive identical churn over HTTP, the durable node is kill -9'd with no
// chance to flush or drain, and its restart over the same directory must
// recover the exact pre-crash index — same live count, same next global ID,
// byte-identical search results against the mirror.
func TestSmokeApserveCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	bin := buildBinary(t, dir, "./cmd/apserve")
	dataDir := filepath.Join(dir, "state")
	// A low compaction threshold so the churn below crosses snapshot
	// boundaries: recovery then exercises snapshot-load plus log-replay, not
	// just replay of a virgin log.
	nodeArgs := []string{"-n", "256", "-dim", "16", "-seed", "7",
		"-live", "-compact-threshold", "8", "-compact-interval", "0"}
	durArgs := append(nodeArgs, "-data-dir", dataDir, "-fsync", "always")
	dur := boot(t, bin, "serving", durArgs...)
	mirror := boot(t, bin, "serving", nodeArgs...)

	// Identical churn on both nodes: 24 inserts with a deterministic bit
	// pattern, every third pre-seeded vector of the first 24 deleted.
	both := []*proc{dur, mirror}
	for i := 0; i < 24; i++ {
		vec := fmt.Sprintf("%016b", (i*2654435761)%(1<<16))
		for _, node := range both {
			var ins serve.InsertResponse
			if code := call(t, "POST", node.url("/v1/insert"), fmt.Sprintf(`{"vector":%q}`, vec), &ins); code != 200 || ins.ID != 256+i {
				t.Fatalf("insert %d on %s: HTTP %d, id %d, want %d", i, node.addr, code, ins.ID, 256+i)
			}
		}
	}
	for id := 0; id < 24; id += 3 {
		for _, node := range both {
			if code := call(t, "POST", node.url("/v1/delete"), fmt.Sprintf(`{"id":%d}`, id), nil); code != 200 {
				t.Fatalf("delete %d on %s: HTTP %d", id, node.addr, code)
			}
		}
	}

	dur.kill(t)
	// Reboot over the same directory. The synthetic seed flags are repeated
	// but must be ignored: the directory is authoritative.
	back := boot(t, bin, "serving", durArgs...)

	var stats serve.StatsResponse
	call(t, "GET", back.url("/v1/stats"), "", &stats)
	d, l := stats.Backend.Durability, stats.Backend.Live
	if d == nil || l == nil {
		t.Fatalf("restarted stats missing the durability or live block: %+v", stats.Backend)
	}
	if !d.Recovered || d.Fsync != "always" {
		t.Fatalf("restart: recovered %v, fsync %q; want true, always", d.Recovered, d.Fsync)
	}
	if live := l.BaseSize + l.DeltaSize - l.Tombstones; live != 256+24-8 {
		t.Fatalf("restart holds %d live vectors, want %d: %+v", live, 256+24-8, l)
	}

	// Probe searches must be byte-identical to the never-crashed mirror.
	for qi := 0; qi < 4; qi++ {
		body := fmt.Sprintf(`{"query":"%016b","k":6}`, (qi*40503+11)%(1<<16))
		var got, want serve.SearchResponse
		code1 := call(t, "POST", back.url("/v1/search"), body, &got)
		code2 := call(t, "POST", mirror.url("/v1/search"), body, &want)
		if code1 != 200 || code2 != 200 {
			t.Fatalf("probe %d: HTTP %d / %d", qi, code1, code2)
		}
		if !reflect.DeepEqual(got.Neighbors, want.Neighbors) {
			t.Fatalf("probe %d: recovered %v, mirror %v", qi, got.Neighbors, want.Neighbors)
		}
	}
	// The ID watermark survived: the next insert on both nodes must assign
	// the next global ID even though deletes shrank the live count.
	for _, node := range []*proc{back, mirror} {
		var ins serve.InsertResponse
		if code := call(t, "POST", node.url("/v1/insert"), fmt.Sprintf(`{"vector":%q}`, strings.Repeat("01", 8)), &ins); code != 200 || ins.ID != 256+24 {
			t.Fatalf("post-recovery insert on %s: HTTP %d, id %d, want %d", node.addr, code, ins.ID, 256+24)
		}
	}
	back.stop(t)
	mirror.stop(t)
}

// TestSmokeAprouter is the cluster lifecycle, binary edition: three apserve
// nodes (two shards, the first replicated), an aprouter resolving shard
// bases by probing them, searches and tail-shard inserts through the
// router, a replica killed mid-run with service intact, then a SIGTERM
// drain of every process.
func TestSmokeAprouter(t *testing.T) {
	dir := t.TempDir()
	apserve := buildBinary(t, dir, "./cmd/apserve")
	aprouter := buildBinary(t, dir, "./cmd/aprouter")
	// Shard 0 is replicated: same seed, same size, identical data.
	nodeArgs := []string{"-n", "1024", "-dim", "16", "-live", "-compact-interval", "0"}
	shard0a := boot(t, apserve, "serving", append(nodeArgs, "-seed", "100", "-node-id", "shard0-a")...)
	shard0b := boot(t, apserve, "serving", append(nodeArgs, "-seed", "100", "-node-id", "shard0-b")...)
	shard1 := boot(t, apserve, "serving", append(nodeArgs, "-seed", "200", "-node-id", "shard1-a")...)
	manifest := filepath.Join(dir, "cluster.json")
	router := boot(t, aprouter, "routing",
		"-shards", fmt.Sprintf("%s,%s;%s", shard0a.addr, shard0b.addr, shard1.addr),
		"-hedge", "5ms", "-probe-interval", "200ms", "-write-manifest", manifest)

	// The recorded manifest carries the probed bases: 0 and 1024.
	m, err := cluster.LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) != 2 || m.Shards[0].Base != 0 || m.Shards[1].Base != 1024 ||
		len(m.Shards[0].Replicas) != 2 || m.Dim != 16 {
		t.Fatalf("recorded manifest = %+v", m)
	}

	healthy := func() {
		t.Helper()
		var health serve.HealthResponse
		if code := call(t, "GET", router.url("/healthz"), "", &health); code != 200 || health.Status != "ok" {
			t.Fatalf("healthz: HTTP %d %+v", code, health)
		}
	}
	search := func(k int) []serve.Neighbor {
		t.Helper()
		var res serve.SearchResponse
		if code := call(t, "POST", router.url("/v1/search"), fmt.Sprintf(`{"query":%q,"k":%d}`, query16, k), &res); code != 200 || len(res.Neighbors) != k {
			t.Fatalf("search k=%d: HTTP %d %+v", k, code, res)
		}
		return res.Neighbors
	}
	healthy()
	// The probed manifest dim lets the router refuse a wrong-length query
	// locally instead of scattering it.
	if code := call(t, "POST", router.url("/v1/search"), `{"query":"1010","k":5}`, nil); code != 400 {
		t.Fatalf("wrong-dim search: HTTP %d, want 400", code)
	}
	search(5)
	// Inserts route to the tail shard (one replica): global ID = 1024+1024.
	var ins cluster.InsertResponse
	if code := call(t, "POST", router.url("/v1/insert"), fmt.Sprintf(`{"vector":%q}`, query16), &ins); code != 200 ||
		ins.ID != 2048 || ins.Acked != 1 || ins.Shard != 1 {
		t.Fatalf("insert: HTTP %d %+v, want id 2048 acked 1 on shard 1", code, ins)
	}
	if nb := search(1)[0]; nb.ID != 2048 || nb.Dist != 0 {
		t.Fatalf("inserted vector not first: %+v", nb)
	}

	// Kill the shard-0 replica; once a probe pass ejects it, the router must
	// keep answering.
	shard0b.kill(t)
	var st cluster.StatsResponse
	eventually(t, "the router to eject the killed replica", func() bool {
		call(t, "GET", router.url("/v1/stats"), "", &st)
		return st.Cluster.Healthy == 2
	})
	for i := 0; i < 3; i++ {
		search(5)
	}
	healthy()
	call(t, "GET", router.url("/v1/stats"), "", &st)
	c := st.Cluster
	if c.Shards != 2 || c.Replicas != 3 || c.Healthy != 2 || c.Searches < 5 || c.Inserts != 1 {
		t.Fatalf("cluster stats after the kill: %+v", c)
	}
	ids := map[string]bool{}
	for _, n := range c.PerNode {
		if n.Error == "" {
			ids[n.NodeID] = true
		}
	}
	if !ids["shard0-a"] || !ids["shard1-a"] {
		t.Fatalf("per_node misses a live replica: %+v", c.PerNode)
	}

	for _, p := range []*proc{router, shard0a, shard1} {
		p.stop(t)
	}
}

// exposition matches one sample line of the Prometheus text format.
var exposition = regexp.MustCompile(`^(\w+)(\{[^}]*\})? ([0-9.e+-]+|\+Inf)$`)

// scrapeMetrics reads GET /metrics, requires the Prometheus 0.0.4
// Content-Type and well-formed sample lines, and returns series → value.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := smokeClient.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("%s Content-Type %q, want text/plain; version=0.0.4", url, ct)
	}
	series := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := exposition.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("%s: bad exposition line %q", url, line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("%s: bad sample %q: %v", url, line, err)
		}
		series[m[1]+m[2]] = v
	}
	return series
}

// TestSmokeObservability runs a durable, paced apserve (cpu backend, so the
// kernel histogram fills) behind an aprouter and checks what the flags and
// the process boundary add to the in-process observability suites: the
// link-time version on -version and apknn_build_info, the exposition both
// binaries serve, histograms filled by -backend cpu and -data-dir, a
// caller's X-Request-ID retrieving the paced search's stitched span tree
// across the two processes, an aptop frame over the fleet, and -anomaly-p99
// dumping a bundle under the data directory.
func TestSmokeObservability(t *testing.T) {
	dir := t.TempDir()
	apserve := buildBinary(t, dir, "./cmd/apserve")
	aprouter := buildBinary(t, dir, "./cmd/aprouter")
	aptop := buildBinary(t, dir, "./cmd/aptop")
	for _, bin := range []string{apserve, aprouter, aptop} {
		if out, err := exec.Command(bin, "-version").CombinedOutput(); err != nil || !strings.Contains(string(out), smokeVersion) {
			t.Fatalf("%s -version: %v %q, want the %q stamp", bin, err, out, smokeVersion)
		}
	}
	state := filepath.Join(dir, "state")
	shard := boot(t, apserve, "serving", "-n", "2048", "-dim", "16", "-backend", "cpu", "-live",
		"-data-dir", state, "-fsync", "always", "-pace", "150ms", "-anomaly-p99", "10ms")
	router := boot(t, aprouter, "routing", "-shards", shard.addr)

	const traceID = "smoke-trace-0042"
	post := func(path, body string, header ...string) {
		t.Helper()
		if code := call(t, "POST", router.url(path), body, nil, header...); code != 200 {
			t.Fatalf("POST %s through the router: HTTP %d", path, code)
		}
	}
	post("/v1/insert", fmt.Sprintf(`{"vector":%q}`, query16))
	post("/v1/search", fmt.Sprintf(`{"query":%q,"k":3}`, query16), obs.RequestIDHeader, traceID)
	post("/v1/search_batch", fmt.Sprintf(`{"queries":[%q,%q],"k":3}`, query16, strings.Repeat("01", 8)))

	// Every series the traffic must have moved, the histograms -backend cpu
	// and -data-dir add included, and the stamped build-info gauge.
	routerSeries := scrapeMetrics(t, router.url("/metrics"))
	for _, tier := range []struct {
		series map[string]float64
		moved  []string
	}{
		{scrapeMetrics(t, shard.url("/metrics")), []string{"apknn_serve_search_seconds_count",
			"apknn_serve_queue_seconds_count", "apknn_kernel_scan_seconds_count",
			"apknn_wal_fsync_seconds_count", "apknn_wal_append_seconds_count",
			"apknn_serve_requests_total", "apknn_debug_traces_recorded_total"}},
		{routerSeries, []string{"apknn_cluster_search_seconds_count", "apknn_cluster_leg_seconds_count",
			`apknn_cluster_shard_legs_total{shard="0"}`, "apknn_cluster_searches_total",
			"apknn_debug_traces_recorded_total"}},
	} {
		for _, name := range tier.moved {
			if tier.series[name] <= 0 {
				t.Errorf("series %s = %v after traffic, want > 0", name, tier.series[name])
			}
		}
		build := fmt.Sprintf(`apknn_build_info{version=%q,`, smokeVersion)
		stamped := false
		for name := range tier.series {
			stamped = stamped || strings.HasPrefix(name, build)
		}
		if !stamped {
			t.Errorf("no %s...} series", build)
		}
	}
	if got := routerSeries["apknn_cluster_healthy_replicas"]; got != 1 {
		t.Errorf("apknn_cluster_healthy_replicas = %v, want 1", got)
	}

	// /v1/stats carries the same histograms as ordered quantile blocks.
	var shardStats serve.StatsResponse
	var routerStats cluster.StatsResponse
	call(t, "GET", shard.url("/v1/stats"), "", &shardStats)
	call(t, "GET", router.url("/v1/stats"), "", &routerStats)
	for name, s := range map[string]obs.Summary{
		"apknn_serve_search_seconds":   shardStats.Latency["apknn_serve_search_seconds"],
		"apknn_serve_queue_seconds":    shardStats.Latency["apknn_serve_queue_seconds"],
		"apknn_wal_fsync_seconds":      shardStats.Latency["apknn_wal_fsync_seconds"],
		"apknn_cluster_search_seconds": routerStats.Latency["apknn_cluster_search_seconds"],
		"apknn_cluster_leg_seconds":    routerStats.Latency["apknn_cluster_leg_seconds"],
	} {
		if s.Count == 0 || s.P50NS <= 0 || s.P50NS > s.P90NS || s.P90NS > s.P99NS || s.P99NS > s.MaxNS {
			t.Errorf("latency block %s = %+v, want samples and ordered quantiles", name, s)
		}
	}

	var rt, st serve.DebugTracesResponse
	traces := func(p *proc, into *serve.DebugTracesResponse) func() bool {
		return func() bool {
			call(t, "GET", p.url("/v1/debug/traces?trace_id="+traceID), "", into)
			return len(into.Traces) > 0
		}
	}
	eventually(t, "the router's record of "+traceID, traces(router, &rt))
	eventually(t, "the shard's record of "+traceID, traces(shard, &st))
	rec := rt.Traces[0]
	if rec.TraceID != traceID || rec.Root.Name != "router.search" || rec.TotalNS < (150*time.Millisecond).Nanoseconds() {
		t.Fatalf("router record: trace %q root %q total %dns; want %q, router.search and the 150ms pace",
			rec.TraceID, rec.Root.Name, rec.TotalNS, traceID)
	}
	leg := rec.Root.Find("shard0_leg")
	if leg == nil || len(leg.Children) != 1 {
		t.Fatalf("no shard0_leg with one stitched subtree: %+v", rec.Root)
	}
	sub := leg.Children[0]
	if sub.Name != "serve.search" || sub.Attr("parent_span_id") != leg.Attr("span_id") || sub.Find("kernel_scan") == nil {
		t.Fatalf("stitched subtree %q parent %q (leg %q), kernel_scan %v",
			sub.Name, sub.Attr("parent_span_id"), leg.Attr("span_id"), sub.Find("kernel_scan") != nil)
	}
	if own := st.Traces[0]; own.TraceID != traceID || own.Root.Attr("parent_span_id") != leg.Attr("span_id") {
		t.Fatalf("shard record: trace %q parent %q, want %q under leg %q",
			own.TraceID, own.Root.Attr("parent_span_id"), traceID, leg.Attr("span_id"))
	}

	out, err := exec.Command(aptop, "-router", router.addr, "-shards", shard.addr, "-once").CombinedOutput()
	if err != nil {
		t.Fatalf("aptop -once: %v\n%s", err, out)
	}
	for _, want := range []string{"\nNODE", "router", shard.addr} {
		if !strings.Contains(string(out), want) {
			t.Errorf("aptop frame missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(string(out), "DOWN") {
		t.Errorf("aptop reported a node down:\n%s", out)
	}

	// The paced searches hold the windowed p99 near 150ms against a 30ms
	// trip point (3 × 10ms); the watcher logs once the bundle is written.
	eventually(t, "the anomaly watcher to log a dump", func() bool {
		return strings.Contains(shard.log(), "anomaly detected")
	})
	bundles, err := filepath.Glob(filepath.Join(state, "debug", "anomaly-*"))
	if err != nil || len(bundles) == 0 {
		t.Fatalf("no anomaly bundle under %s (err %v)", state, err)
	}
	readBundle := func(name string, into interface{}) {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(bundles[0], name))
		if err == nil {
			err = json.Unmarshal(b, into)
		}
		if err != nil {
			t.Fatalf("bundle %s: %s: %v", bundles[0], name, err)
		}
	}
	// What tripped: the windowed p99 past factor × target.
	var meta struct {
		WindowP99NS int64   `json:"window_p99_ns"`
		TargetNS    int64   `json:"target_ns"`
		Factor      float64 `json:"factor"`
	}
	readBundle("meta.json", &meta)
	if meta.TargetNS != (10*time.Millisecond).Nanoseconds() || meta.Factor <= 0 ||
		float64(meta.WindowP99NS) < meta.Factor*float64(meta.TargetNS) {
		t.Errorf("meta.json %+v, want target 10ms and window_p99_ns >= factor × target_ns", meta)
	}
	// The node's own flight recorder: the paced search is in its recent ring.
	var dumped map[string][]*obs.TraceRecord
	readBundle("traces.json", &dumped)
	paced := false
	for _, r := range dumped[obs.ClassRecent] {
		paced = paced || r.TraceID == traceID
	}
	if !paced {
		t.Errorf("traces.json recent ring (%d records) lacks %s", len(dumped[obs.ClassRecent]), traceID)
	}
	// The node's own registry: the serve histograms' minute windows.
	var windows map[string]obs.Summary
	readBundle("windows.json", &windows)
	if s := windows["apknn_serve_search_seconds"]; s.Count == 0 {
		t.Errorf("windows.json apknn_serve_search_seconds = %+v, want count > 0", s)
	}
	router.stop(t)
	shard.stop(t)
}
