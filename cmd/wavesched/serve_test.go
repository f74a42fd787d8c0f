package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"wavesched/internal/admission"
	"wavesched/internal/job"
	"wavesched/internal/netgraph"
)

func TestParseServeFlags(t *testing.T) {
	o, err := parseServeFlags([]string{
		"-net", "x.json", "-addr", ":0", "-tau", "250ms", "-policy", "ret",
		"-wal", "/tmp/wal", "-snapshot-every", "16",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.NetPath != "x.json" || o.Tau != 250*time.Millisecond || o.Policy != "ret" ||
		o.WALDir != "/tmp/wal" || o.SnapshotEvery != 16 {
		t.Errorf("parsed options: %+v", o)
	}

	if _, err := parseServeFlags(nil); err == nil {
		t.Error("missing -net accepted")
	}
	if _, err := parseServeFlags([]string{"-net", "x.json", "-tau", "-1s"}); err == nil {
		t.Error("negative -tau accepted")
	}
	if _, err := parseServeFlags([]string{"-bogus"}); err == nil {
		t.Error("unknown flag accepted")
	}
	for _, bad := range badSolverFlags {
		_, err := parseServeFlags([]string{"-net", "x.json", bad.flag, bad.value})
		if err == nil {
			t.Errorf("serve %s %s accepted", bad.flag, bad.value)
		} else if !strings.Contains(err.Error(), bad.flag) {
			t.Errorf("serve %s %s: error %q does not name the flag", bad.flag, bad.value, err)
		}
	}
	if _, err := parseServeFlags([]string{"-net", "x.json", "-k", "1", "-alpha", "1", "-bmax", "0.5"}); err != nil {
		t.Errorf("in-range edge values rejected: %v", err)
	}
	for _, v := range []string{"critical=NaN", "critical=+Inf", "standard=Inf", "critical=0", "critical=-1"} {
		if _, err := parseServeFlags([]string{"-net", "x.json", "-priority", v}); err == nil {
			t.Errorf("-priority %s accepted", v)
		}
	}
	for _, bad := range []struct{ quota, key string }{
		{"rate=NaN", "rate"}, {"rate=Inf", "rate"}, {"cms:burst=NaN", "burst"},
		{"burst=-Inf", "burst"}, {"max_demand=NaN", "max_demand"}, {"cms:max_demand=+Inf", "max_demand"},
	} {
		_, err := parseServeFlags([]string{"-net", "x.json", "-quota", bad.quota})
		if err == nil {
			t.Errorf("-quota %s accepted", bad.quota)
		} else if !strings.Contains(err.Error(), bad.key) {
			t.Errorf("-quota %s: error %q does not name the key", bad.quota, err)
		}
	}
	o, err = parseServeFlags([]string{"-net", "x.json", "-priority", "critical=8,scavenger=0.125",
		"-quota", "cms:rate=50,burst=5,max_jobs=200,max_demand=1e6"})
	if err != nil {
		t.Fatalf("finite -priority/-quota rejected: %v", err)
	}
	if o.Admission.ClassWeights[admission.ClassCritical] != 8 || o.Admission.Tenants["cms"].RatePerSec != 50 {
		t.Errorf("parsed admission config: %+v", o.Admission)
	}
}

// badSolverFlags are out-of-range solver flags, each with the flag name its
// rejection must carry.
var badSolverFlags = []struct{ flag, value string }{
	{"-k", "0"}, {"-k", "-2"},
	{"-alpha", "0"}, {"-alpha", "-0.1"}, {"-alpha", "1.5"}, {"-alpha", "NaN"},
	{"-bmax", "0"}, {"-bmax", "-1"}, {"-bmax", "+Inf"},
}

func writeNetFixture(t *testing.T, g *netgraph.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "net.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBuildServerRejectsBadOptions(t *testing.T) {
	net := writeNetFixture(t, netgraph.Ring(4, 2, 10))
	if _, _, err := buildServer(serveOptions{NetPath: net, Policy: "bogus"}); err == nil {
		t.Error("bogus policy accepted")
	}
	if _, _, err := buildServer(serveOptions{NetPath: "/no/such/file", Policy: "maxthroughput"}); err == nil {
		t.Error("missing network file accepted")
	}
}

// TestServeCarriesWarmBases pins that the daemon runs the warm carry the
// daemon-epoch benchmark measures, under every policy.
func TestServeCarriesWarmBases(t *testing.T) {
	for _, pol := range []string{"maxthroughput", "ret", "reject"} {
		o, err := parseServeFlags([]string{"-net", "x.json", "-policy", pol})
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := serverConfig(o)
		if err != nil {
			t.Fatal(err)
		}
		if !cfg.Controller.WarmStart {
			t.Errorf("-policy %s: serve runs cold", pol)
		}
	}
}

// syncBuffer lets the test poll runServe's startup line while the serve
// goroutine is still writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeEndToEnd boots the daemon on an ephemeral port, submits a job
// over HTTP, waits for the wall-clock loop to schedule it, and shuts
// down via context cancellation.
func TestServeEndToEnd(t *testing.T) {
	net := writeNetFixture(t, netgraph.Ring(4, 2, 10))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- runServe(ctx, &out, []string{
			"-net", net, "-addr", "127.0.0.1:0", "-tau", "20ms",
			"-slice-len", "0.02", "-k", "2",
		})
	}()

	// The startup line carries the bound address.
	addrRe := regexp.MustCompile(`http://([0-9.]+:[0-9]+)`)
	var base string
	deadline := time.Now().Add(5 * time.Second)
	for base == "" {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no listen address in output: %q", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Post(base+"/v1/jobs", "application/json",
		bytes.NewReader([]byte(`{"src":0,"dst":2,"size":0.1,"start":0,"end":10}`)))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID    int    `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.State != "pending" {
		t.Fatalf("submit: status %d, body %+v", resp.StatusCode, sub)
	}

	// The epoch loop ticks every 20ms; wait for the job to leave pending.
	var health struct {
		Status string `json:"status"`
		Epochs int    `json:"epochs"`
	}
	for deadline = time.Now().Add(5 * time.Second); ; {
		resp, err := http.Get(base + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if health.Epochs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no epoch ran: %+v", health)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if health.Status != "ok" {
		t.Errorf("health status %q, want ok", health.Status)
	}

	// /metrics rides on the same listener.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !bytes.Contains(body.Bytes(), []byte("server_epoch_ticks_total")) {
		t.Error("/metrics missing server_epoch_ticks_total")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runServe: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runServe did not shut down")
	}
}

// TestRunSimJSON checks the -json sim output parses and carries the
// stable wire fields.
func TestRunSimJSON(t *testing.T) {
	g := netgraph.Line(2, 2, 10)
	jobs := []job.Job{
		{ID: 1, Arrival: 0, Src: 0, Dst: 1, Size: 4, Start: 0, End: 6},
		{ID: 2, Arrival: 0, Src: 1, Dst: 0, Size: 2, Start: 0, End: 4},
	}
	var buf bytes.Buffer
	err := runSim(&buf, g, jobs, simOptions{
		Tau: 1, SliceLen: 1, K: 1, Policy: "maxthroughput", JSON: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Epochs  int `json:"epochs"`
		Summary struct {
			Total     int `json:"total"`
			Completed int `json:"completed"`
		} `json:"summary"`
		Records []map[string]any `json:"records"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("decode -json output %q: %v", buf.String(), err)
	}
	if out.Summary.Total != 2 || out.Epochs == 0 {
		t.Errorf("summary %+v epochs %d", out.Summary, out.Epochs)
	}
	if len(out.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(out.Records))
	}
	for _, key := range []string{"job_id", "state", "delivered", "finish_time"} {
		if _, ok := out.Records[0][key]; !ok {
			t.Errorf("record missing %q: %v", key, out.Records[0])
		}
	}
}
