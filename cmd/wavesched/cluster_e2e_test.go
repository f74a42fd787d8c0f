package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"wavesched/internal/netgraph"
)

// The cluster e2e re-execs this test binary as real daemon processes so
// the leader can be killed with an actual SIGKILL. TestMain routes the
// child invocations into runServe and everything else into the tests.
const (
	e2eChildEnv = "WAVESCHED_E2E_CHILD"
	e2eArgsEnv  = "WAVESCHED_E2E_ARGS"
	e2eGateEnv  = "WAVESCHED_CLUSTER_E2E"
	e2eArgsSep  = "\x1f"
)

func TestMain(m *testing.M) {
	if os.Getenv(e2eChildEnv) == "1" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		args := strings.Split(os.Getenv(e2eArgsEnv), e2eArgsSep)
		if err := runServe(ctx, os.Stdout, args); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// e2eProc is one real daemon process in the test cluster.
type e2eProc struct {
	id   string
	url  string
	cmd  *exec.Cmd
	dead bool
}

func (p *e2eProc) healthz(t *testing.T) (map[string]any, error) {
	t.Helper()
	resp, err := http.Get(p.url + "/v1/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// freePorts grabs n distinct ephemeral ports. The listeners are closed
// before the children start, so a tiny reuse race exists; the children
// fail loudly if they lose it.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	var lns []net.Listener
	var ports []int
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	for _, ln := range lns {
		ln.Close()
	}
	return ports
}

// TestClusterProcessE2E is the deployment-shaped acceptance test: three
// real daemon processes, a real SIGKILL of the leader, a follower
// takeover, byte-identical replayed job state on the survivor, new
// writes accepted, and the replication metrics visible on /metrics.
// Gated behind WAVESCHED_CLUSTER_E2E=1 (run via `make cluster-test`) so
// plain `go test ./...` stays hermetic and fast.
func TestClusterProcessE2E(t *testing.T) {
	if os.Getenv(e2eGateEnv) == "" {
		t.Skip("set WAVESCHED_CLUSTER_E2E=1 (or run `make cluster-test`) to run the process-level cluster e2e")
	}

	base := t.TempDir()
	netPath := writeNetFixture(t, netgraph.Ring(4, 2, 10))
	clusterDir := base + "/cluster"
	ports := freePorts(t, 3)

	var peerParts []string
	for i, port := range ports {
		peerParts = append(peerParts, fmt.Sprintf("n%d=http://127.0.0.1:%d", i+1, port))
	}
	peers := strings.Join(peerParts, ",")

	procs := make(map[string]*e2eProc)
	for i, port := range ports {
		id := fmt.Sprintf("n%d", i+1)
		args := []string{
			"-net", netPath,
			"-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-tau", "150ms", "-slice-len", "0.15", "-k", "2",
			"-node-id", id,
			"-advertise", fmt.Sprintf("http://127.0.0.1:%d", port),
			"-peers", peers,
			"-quorum", "2",
			"-cluster-dir", clusterDir,
			"-wal", fmt.Sprintf("%s/wal-%s", base, id),
			"-lease-ttl", "600ms",
			"-log-level", "warn",
			"-flight-frames", "0",
		}
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(),
			e2eChildEnv+"=1", e2eArgsEnv+"="+strings.Join(args, e2eArgsSep))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procs[id] = &e2eProc{id: id, url: fmt.Sprintf("http://127.0.0.1:%d", port), cmd: cmd}
	}
	t.Cleanup(func() {
		for _, p := range procs {
			if !p.dead {
				p.cmd.Process.Kill()
			}
			p.cmd.Wait()
		}
	})

	findLeader := func(timeout time.Duration) *e2eProc {
		deadline := time.Now().Add(timeout)
		for time.Now().Before(deadline) {
			for _, p := range procs {
				if p.dead {
					continue
				}
				if h, err := p.healthz(t); err == nil && h["role"] == "leader" {
					return p
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
		return nil
	}

	leader := findLeader(10 * time.Second)
	if leader == nil {
		t.Fatal("no leader elected")
	}

	// Two quick jobs; every write must reach the quorum before the ack.
	client := &http.Client{} // follows the 307 if we race a failover
	for i := 1; i <= 2; i++ {
		body := fmt.Sprintf(`{"id": %d, "src": %d, "dst": %d, "size": 0.5, "start": 0, "end": 100}`, i, i%4, (i+2)%4)
		resp, err := client.Post(leader.url+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: code %d body %s", i, resp.StatusCode, b)
		}
	}

	// Let the epoch loop run the jobs to completion so the state the
	// failover must reproduce is stable (the loop idles when drained).
	// "active" counts the jobs left unfinished once the committed period
	// ends, so it reads 0 a period before the last settlement: wait for
	// both jobs' records too.
	waitDrained := func(p *e2eProc) {
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get(p.url + "/v1/stats")
			if err == nil {
				var st struct {
					Pending int `json:"pending"`
					Active  int `json:"active"`
					Summary struct {
						Total int `json:"total"`
					} `json:"summary"`
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if json.Unmarshal(body, &st) == nil && st.Pending == 0 && st.Active == 0 && st.Summary.Total == 2 {
					return
				}
			}
			time.Sleep(100 * time.Millisecond)
		}
		t.Fatal("jobs never drained")
	}
	waitDrained(leader)

	// Followers must hold the full log before the kill.
	lh, err := leader.healthz(t)
	if err != nil {
		t.Fatal(err)
	}
	leaderSeq := lh["wal_seq"].(float64)
	for _, p := range procs {
		if p == leader {
			continue
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			if h, err := p.healthz(t); err == nil && h["wal_seq"].(float64) >= leaderSeq {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never caught up to seq %v", p.id, leaderSeq)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	wantJobs := getBody(t, leader.url+"/v1/jobs")

	// The real thing: SIGKILL the leader process.
	if err := leader.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	leader.cmd.Wait()
	leader.dead = true

	newLeader := findLeader(10 * time.Second)
	if newLeader == nil {
		t.Fatal("no follower took over after SIGKILL")
	}
	if newLeader == leader {
		t.Fatal("dead leader still leads")
	}

	// The survivor serves the identical replayed job state...
	gotJobs := getBody(t, newLeader.url+"/v1/jobs")
	if !bytes.Equal(wantJobs, gotJobs) {
		t.Fatalf("job state diverged across failover:\nbefore: %s\nafter:  %s", wantJobs, gotJobs)
	}
	// ...and accepts new writes (quorum 2 of the surviving 2).
	resp, err := client.Post(newLeader.url+"/v1/jobs", "application/json",
		strings.NewReader(`{"id": 3, "src": 0, "dst": 2, "size": 0.5, "start": 0, "end": 100}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-failover submit: code %d body %s", resp.StatusCode, b)
	}

	// Replication instrumentation is live on the metrics endpoint.
	metrics := string(getBody(t, newLeader.url+"/metrics"))
	for _, want := range []string{
		"cluster_replication_lag_entries", "cluster_takeovers_total",
		"cluster_lease_renewals_total", "cluster_replication_entries_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
	if !strings.Contains(metrics, "cluster_takeovers_total 1") {
		t.Errorf("expected one takeover in metrics, got:\n%s", grepLines(metrics, "cluster_takeovers"))
	}
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: code %d body %s", url, resp.StatusCode, b)
	}
	return b
}

func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
