package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"wavesched/internal/controller"
	"wavesched/internal/netgraph"
	"wavesched/internal/server"
)

const (
	testTTL      = 300 * time.Millisecond
	testElection = 100 * time.Millisecond
)

// swapHandler serves 503 until the node behind it is built — peers
// probing a booting member fail fast instead of parking in the accept
// backlog of a bound-but-unserved listener.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := s.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "booting", http.StatusServiceUnavailable)
}

// testNode is one in-process cluster member plus its real HTTP listener
// (replication runs over actual sockets, exactly as deployed).
type testNode struct {
	id     string
	addr   string // host:port, stable across restarts
	url    string
	walDir string
	node   *Node
	hs     *http.Server
	swap   *swapHandler
	alive  bool
}

type testCluster struct {
	t          *testing.T
	g          *netgraph.Graph
	clusterDir string
	quorum     int
	nodes      map[string]*testNode
	order      []string
}

// newTestCluster pre-binds one listener per member so every node knows
// its peers' URLs before any of them starts, then boots them all.
func newTestCluster(t *testing.T, n, quorum int) *testCluster {
	t.Helper()
	c := &testCluster{
		t: t, g: netgraph.Ring(4, 2, 10),
		clusterDir: t.TempDir(), quorum: quorum,
		nodes: make(map[string]*testNode),
	}
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("n%d", i)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tn := &testNode{
			id: id, addr: ln.Addr().String(),
			url:    "http://" + ln.Addr().String(),
			walDir: t.TempDir(),
			swap:   &swapHandler{},
		}
		tn.hs = &http.Server{Handler: tn.swap}
		go tn.hs.Serve(ln)
		c.nodes[id] = tn
		c.order = append(c.order, id)
	}
	for _, id := range c.order {
		c.boot(id)
	}
	t.Cleanup(func() {
		for _, tn := range c.nodes {
			if tn.alive {
				tn.kill()
			}
		}
	})
	return c
}

// peersOf lists every member except id.
func (c *testCluster) peersOf(id string) []Peer {
	var peers []Peer
	for _, other := range c.order {
		if other != id {
			peers = append(peers, Peer{ID: other, URL: c.nodes[other].url})
		}
	}
	return peers
}

// boot builds the Node and swaps it in behind the live listener.
func (c *testCluster) boot(id string) {
	c.t.Helper()
	tn := c.nodes[id]
	srvCfg := server.Config{
		Controller: controller.Config{Tau: 1, SliceLen: 1, K: 2, Policy: controller.PolicyMaxThroughput},
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	node, err := NewNode(c.g, srvCfg, Config{
		NodeID: id, AdvertiseURL: tn.url, Peers: c.peersOf(id),
		ClusterDir: c.clusterDir, WALDir: tn.walDir, SnapshotEvery: 4,
		Quorum: c.quorum, LeaseTTL: testTTL, Election: testElection,
		PeerTimeout: 2 * time.Second,
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		c.t.Fatal(err)
	}
	tn.node = node
	h := node.Handler()
	tn.swap.h.Store(&h)
	tn.alive = true
}

// restart re-binds the member's original address and boots it again
// from its surviving WAL directory (the kill -9 + restart path).
func (c *testCluster) restart(id string) {
	c.t.Helper()
	tn := c.nodes[id]
	if tn.alive {
		c.t.Fatalf("restart %s: still alive", id)
	}
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ { // the freed port can take a moment to rebind
		ln, err = net.Listen("tcp", tn.addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		c.t.Fatalf("restart %s: rebind %s: %v", id, tn.addr, err)
	}
	tn.swap = &swapHandler{}
	tn.hs = &http.Server{Handler: tn.swap}
	go tn.hs.Serve(ln)
	c.boot(id)
}

// kill stops a member abruptly: listener down, log closed, no lease
// release, no settlement — the in-process analog of kill -9. The lease is
// left to expire on its own, exactly as when the process dies.
func (tn *testNode) kill() {
	tn.hs.Close()
	tn.alive = false
	n := tn.node
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	n.applyQ = nil
	n.applyCond.Broadcast()
	n.mu.Unlock()
	n.rlog.Close()
}

// get fetches a path from the node over real HTTP and returns the body.
func (tn *testNode) get(t *testing.T, path string) []byte {
	t.Helper()
	resp, err := http.Get(tn.url + path)
	if err != nil {
		t.Fatalf("GET %s%s: %v", tn.id, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s%s: code %d body %s", tn.id, path, resp.StatusCode, b)
	}
	return b
}

// submit posts one job; returns the HTTP status code.
func (tn *testNode) submit(t *testing.T, id int, src, dst int, size, start, end, arrival float64, follow bool) int {
	t.Helper()
	body, _ := json.Marshal(map[string]any{
		"id": id, "src": src, "dst": dst, "size": size,
		"start": start, "end": end, "arrival": arrival,
	})
	client := &http.Client{}
	if !follow {
		client.CheckRedirect = func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }
	}
	req, _ := http.NewRequest(http.MethodPost, tn.url+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("POST %s/v1/jobs: %v", tn.id, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// waitCaughtUp blocks until the node has fsynced AND applied seq.
func (tn *testNode) waitCaughtUp(t *testing.T, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if tn.node.rlog.Seq() >= seq {
			tn.node.waitApplied(seq)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s not caught up to seq %d (at %d)", tn.id, seq, tn.node.rlog.Seq())
}

// electLeader drives one member through a full takeover and asserts it.
func electLeader(t *testing.T, tn *testNode) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		tn.node.ElectTick()
		if tn.node.IsLeader() {
			return
		}
		time.Sleep(testElection)
	}
	t.Fatalf("%s never became leader", tn.id)
}

// TestLeaderKillFailover is the headline acceptance test: kill the
// leader mid-epoch and a promoted follower must serve the identical
// committed schedule within one election tick, then accept new jobs.
func TestLeaderKillFailover(t *testing.T) {
	c := newTestCluster(t, 3, 2)
	n1, n2, n3 := c.nodes["n1"], c.nodes["n2"], c.nodes["n3"]

	n1.node.ElectTick() // empty lease: immediate promotion
	if !n1.node.IsLeader() {
		t.Fatal("n1 did not take the empty lease")
	}

	// Build committed state on the leader: jobs, an epoch, then more
	// jobs so the kill lands mid-epoch with work still pending.
	for i, sp := range [][2]int{{0, 2}, {1, 3}} {
		if code := n1.submit(t, i+1, sp[0], sp[1], 4, 0, 9, 0, false); code != http.StatusAccepted {
			t.Fatalf("submit %d: code %d", i+1, code)
		}
	}
	if err := n1.node.Server().Tick(); err != nil {
		t.Fatal(err)
	}
	if code := n1.submit(t, 3, 2, 0, 3, 1, 8, 0.5, false); code != http.StatusAccepted {
		t.Fatalf("mid-epoch submit: code %d", code)
	}

	want := n1.get(t, "/v1/schedule")
	seq := n1.node.rlog.Seq()
	n2.waitCaughtUp(t, seq)
	n3.waitCaughtUp(t, seq)

	takeoverStart := time.Now()
	n1.kill()
	time.Sleep(testTTL + 50*time.Millisecond) // let the lease lapse

	// One election pass must be enough: the lease is expired and the
	// follower already holds the full log.
	n2.node.ElectTick()
	if !n2.node.IsLeader() {
		t.Fatal("n2 did not promote after lease expiry")
	}
	if d := time.Since(takeoverStart); d > 2*time.Second {
		t.Fatalf("takeover took %s", d)
	}

	got := n2.get(t, "/v1/schedule")
	if !bytes.Equal(want, got) {
		t.Fatalf("schedule diverged after failover:\nleader: %s\nfollower: %s", want, got)
	}

	// The new leader accepts writes (quorum 2 of {n2, n3}).
	if code := n2.submit(t, 4, 3, 1, 2, 2, 9, 1, false); code != http.StatusAccepted {
		t.Fatalf("post-failover submit: code %d", code)
	}
	// And its epoch loop runs.
	if err := n2.node.Server().Tick(); err != nil {
		t.Fatalf("post-failover tick: %v", err)
	}

	// The remaining follower redirects writes to the new leader...
	body, _ := json.Marshal(map[string]any{"id": 5, "src": 0, "dst": 1, "size": 1, "start": 3, "end": 9, "arrival": 2})
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	resp, err := noFollow.Post(n3.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("follower write: code %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != n2.url+"/v1/jobs" {
		t.Fatalf("follower redirect to %q, want %q", loc, n2.url+"/v1/jobs")
	}
	// ...and a client that follows the redirect lands the write.
	if code := n3.submit(t, 5, 0, 1, 1, 3, 9, 2, true); code != http.StatusAccepted {
		t.Fatalf("redirected submit: code %d", code)
	}

	// The WAL carries the leadership change as durable history.
	entries := n2.node.rlog.EntriesFrom(0)
	foundElection := false
	for _, e := range entries {
		if e.Type == "leadership" && e.Node == "n2" && e.Reason == "elected" {
			foundElection = true
		}
	}
	if !foundElection {
		t.Fatal("no leadership entry for n2's election in the replicated log")
	}
}

// TestFencingRejectsDeposedLeader: a leader that loses the lease while
// partitioned must have its stale appends rejected cluster-wide by the
// fencing token, step down on its next tick, and self-heal its diverged
// log once it rejoins.
func TestFencingRejectsDeposedLeader(t *testing.T) {
	c := newTestCluster(t, 3, 2)
	n1, n2, n3 := c.nodes["n1"], c.nodes["n2"], c.nodes["n3"]

	n1.node.ElectTick()
	if !n1.node.IsLeader() {
		t.Fatal("n1 did not take the empty lease")
	}
	if code := n1.submit(t, 1, 0, 2, 4, 0, 9, 0, false); code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	seq := n1.node.rlog.Seq()
	n2.waitCaughtUp(t, seq)
	n3.waitCaughtUp(t, seq)

	// Partition n1: its listener goes away (inbound replication and the
	// new leader's announcements can't reach it), but the process lives
	// and still believes it leads.
	n1.hs.Close()

	// n1 stops renewing; after the TTL n2 takes over with a newer token.
	time.Sleep(testTTL + 50*time.Millisecond)
	n2.node.ElectTick()
	if !n2.node.IsLeader() {
		t.Fatal("n2 did not promote")
	}

	// The deposed leader tries to append with its stale token — served
	// through its own handler, since its listener is down.
	rejectsBefore := telFencingRejects.Value()
	n2SeqBefore := n2.node.rlog.Seq()
	code := submitViaHandler(t, n1.node, 9, 3, 1, 2, 1, 8, 0.5)
	if code != http.StatusInternalServerError {
		t.Fatalf("stale-leader submit: code %d, want 500 (fenced append)", code)
	}
	if got := telFencingRejects.Value(); got <= rejectsBefore {
		t.Fatalf("fencing rejections %d, want > %d", got, rejectsBefore)
	}
	// The stale entry reached no other member.
	if n2.node.rlog.Seq() != n2SeqBefore {
		t.Fatal("stale append leaked into the new leader's log")
	}
	// The deposed leader notices on its next tick and steps down.
	n1.node.ElectTick()
	if n1.node.IsLeader() {
		t.Fatal("fenced leader did not step down")
	}

	// Rejoin: n1's listener comes back; the next replicated batch hits
	// its diverged suffix, and n1 resyncs itself from the leader.
	ln, err := net.Listen("tcp", n1.addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", n1.addr, err)
	}
	n1.hs = &http.Server{Handler: n1.node.Handler()}
	go n1.hs.Serve(ln)

	if code := n2.submit(t, 2, 1, 3, 3, 0, 7, 0, false); code != http.StatusAccepted {
		t.Fatalf("post-failover submit: code %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		a, b := n1.node.rlog.EntriesFrom(0), n2.node.rlog.EntriesFrom(0)
		if len(a) == len(b) && len(a) > 0 && sameEntry(a[len(a)-1], b[len(b)-1]) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("diverged node never resynced: n1=%d entries, n2=%d entries", len(a), len(b))
		}
		time.Sleep(10 * time.Millisecond)
	}
	// And the healed follower serves the leader's schedule.
	if err := n2.node.Server().Tick(); err != nil {
		t.Fatal(err)
	}
	n1.waitCaughtUp(t, n2.node.rlog.Seq())
	if want, got := n2.get(t, "/v1/schedule"), n1.get(t, "/v1/schedule"); !bytes.Equal(want, got) {
		t.Fatalf("healed follower schedule diverged:\nleader: %s\nfollower: %s", want, got)
	}
}

// submitViaHandler posts a job straight through a node's handler —
// bypassing its (possibly closed) listener, as a stale in-process
// leader would serve a client whose connection predates the partition.
func submitViaHandler(t *testing.T, n *Node, id, src, dst int, size, start, end, arrival float64) int {
	t.Helper()
	body, _ := json.Marshal(map[string]any{
		"id": id, "src": src, "dst": dst, "size": size,
		"start": start, "end": end, "arrival": arrival,
	})
	req, _ := http.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	rec := newRecorder()
	n.Handler().ServeHTTP(rec, req)
	return rec.status
}

// newRecorder is a minimal ResponseWriter for submitViaHandler.
type recorder struct {
	status int
	hdr    http.Header
	body   bytes.Buffer
}

func newRecorder() *recorder            { return &recorder{status: http.StatusOK, hdr: http.Header{}} }
func (r *recorder) Header() http.Header { return r.hdr }
func (r *recorder) WriteHeader(c int)   { r.status = c }
func (r *recorder) Write(b []byte) (int, error) {
	return r.body.Write(b)
}

// TestFollowerRestartCatchUp: a member that missed writes while down
// must pull them at startup (snapshot transfer) before serving.
func TestFollowerRestartCatchUp(t *testing.T) {
	c := newTestCluster(t, 3, 2)
	n1, n3 := c.nodes["n1"], c.nodes["n3"]

	n1.node.ElectTick()
	if !n1.node.IsLeader() {
		t.Fatal("n1 did not take the empty lease")
	}
	if code := n1.submit(t, 1, 0, 2, 4, 0, 9, 0, false); code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	n3.waitCaughtUp(t, n1.node.rlog.Seq())
	n3.kill()

	// Writes continue while n3 is down (quorum 2 of {n1, n2}).
	if code := n1.submit(t, 2, 1, 3, 3, 0, 7, 0, false); code != http.StatusAccepted {
		t.Fatalf("submit while member down: code %d", code)
	}
	if err := n1.node.Server().Tick(); err != nil {
		t.Fatal(err)
	}
	seq := n1.node.rlog.Seq()

	c.restart("n3")
	n3.waitCaughtUp(t, seq)
	if want, got := n1.get(t, "/v1/schedule"), n3.get(t, "/v1/schedule"); !bytes.Equal(want, got) {
		t.Fatalf("restarted follower schedule diverged:\nleader: %s\nfollower: %s", want, got)
	}
}
