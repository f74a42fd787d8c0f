package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"wavesched/internal/netgraph"
	"wavesched/internal/server"
	"wavesched/internal/store"
)

// Role is a node's current cluster role.
type Role string

const (
	// RoleLeader holds the lease: it runs the epoch loop, accepts
	// writes, and streams WAL entries to followers.
	RoleLeader Role = "leader"
	// RoleFollower replays the leader's stream: it serves reads from
	// replicated state and redirects writes to the leader.
	RoleFollower Role = "follower"
)

// Config describes one cluster member.
type Config struct {
	// NodeID names this member; it appears in the lease, leadership WAL
	// entries, and peer acks.
	NodeID string
	// AdvertiseURL is this node's base URL as peers and redirected
	// clients should reach it (e.g. "http://127.0.0.1:8081").
	AdvertiseURL string
	// Peers lists the other members (not this node).
	Peers []Peer
	// ClusterDir is the shared directory holding the lease record.
	ClusterDir string
	// WALDir is this node's own durable log directory (never shared).
	WALDir string
	// SnapshotEvery is the local log's compaction threshold.
	SnapshotEvery int
	// Quorum is how many members (counting this node) must fsync an
	// entry before it is acknowledged: 1-of-2, 2-of-3, … 0 = majority.
	Quorum int
	// LeaseTTL is how long the leader lease lasts without renewal;
	// takeover latency is bounded by it. 0 defaults to 3×Election.
	LeaseTTL time.Duration
	// Election is the cadence of lease renewals (leader) and lease
	// polls (followers) — the lease is renewed each epoch tick of this
	// clock. 0 defaults to LeaseTTL/3, or 500ms if both are zero.
	Election time.Duration
	// PeerTimeout bounds one replication round trip. 0 = 2s.
	PeerTimeout time.Duration
	// Logger receives cluster diagnostics; nil selects slog.Default().
	Logger *slog.Logger
}

// Node is one cluster member: the local replicated log, the serving
// layer over it, and the election loop that moves the node between
// follower and leader.
//
// Locking: n.mu guards the log/apply/role state machine and is the
// OUTER lock — paths under n.mu may take the server's mutex (via
// srv.Apply / srv.Reset), never the reverse. The serving layer reads
// membership through the lock-free atomic view (isLeader, leaderURLv,
// highTok) so its handlers can stay under their own mutex without
// ordering against n.mu.
type Node struct {
	cfg    Config
	lease  *Lease
	rlog   *ReplicatedLog
	srv    *server.Server
	client *http.Client
	logger *slog.Logger

	// Lock-free view for server.ClusterView.
	isLeader   atomic.Bool
	leaderURLv atomic.Pointer[string]
	highTok    atomic.Uint64

	mu           sync.Mutex
	role         Role
	token        uint64 // token this node leads under (0 while following)
	highestToken uint64 // newest token witnessed anywhere
	applied      uint64 // highest seq applied to the local controller
	applyQ       []store.Entry
	applyCond    *sync.Cond
	resyncing    bool
	stopped      bool
}

// NewNode opens the node's local log, catches up from any reachable
// peer that is ahead (snapshot transfer), and builds the serving layer
// over the replayed state. The node starts as a follower; Run (or
// explicit ElectTick calls in tests) moves it to leader.
func NewNode(g *netgraph.Graph, srvCfg server.Config, cfg Config) (*Node, error) {
	if cfg.NodeID == "" {
		return nil, fmt.Errorf("cluster: node ID is required")
	}
	if cfg.WALDir == "" {
		return nil, fmt.Errorf("cluster: a per-node WAL directory is required")
	}
	if cfg.Election <= 0 {
		if cfg.LeaseTTL > 0 {
			cfg.Election = cfg.LeaseTTL / 3
		} else {
			cfg.Election = 500 * time.Millisecond
		}
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 3 * cfg.Election
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = 2 * time.Second
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	lease, err := NewLease(cfg.ClusterDir, cfg.NodeID, cfg.AdvertiseURL, cfg.LeaseTTL)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg: cfg, lease: lease, logger: logger, role: RoleFollower,
		client: &http.Client{Timeout: cfg.PeerTimeout},
	}
	n.applyCond = sync.NewCond(&n.mu)
	n.leaderURLv.Store(new(string))

	rlog, entries, err := NewReplicatedLog(cfg.WALDir, cfg.SnapshotEvery, cfg.Peers, cfg.Quorum, cfg.PeerTimeout)
	if err != nil {
		return nil, err
	}
	n.rlog = rlog

	// Startup catch-up: reconcile the local log with the cluster —
	// pulling what we lack, or replacing the log wholesale if it
	// diverged (we died as a leader with an unreplicated suffix) —
	// before the controller replays it.
	if rec, err := lease.Read(); err == nil {
		n.observeLease(rec)
	}
	entries, err = n.startupCatchUp(entries)
	if err != nil {
		rlog.Close()
		return nil, err
	}

	srvCfg.Log = rlog
	srvCfg.Replay = entries
	srvCfg.Cluster = n
	srv, err := server.New(g, srvCfg)
	if err != nil {
		rlog.Close()
		return nil, err
	}
	n.srv = srv
	n.applied = rlog.Seq()
	go n.applyLoop()
	return n, nil
}

// startupCatchUp reconciles the local log with the cluster before the
// controller replays it. Returns the (possibly extended or replaced)
// entry history. Divergence is detected by comparing our head entry
// with the peer's entry at the same sequence — two logs of equal length
// can still disagree if we kept a suffix the cluster fenced off.
func (n *Node) startupCatchUp(entries []store.Entry) ([]store.Entry, error) {
	best, bestSeq, ok := n.bestPeer()
	if !ok {
		return entries, nil
	}
	localSeq := uint64(len(entries))
	if localSeq == 0 {
		if bestSeq == 0 {
			return entries, nil
		}
		fetched, err := n.fetchSnapshot(best, 0)
		if err != nil {
			n.logger.Warn("cluster: startup catch-up failed", "peer", best.ID, "err", err)
			return entries, nil
		}
		if err := n.rlog.appendLocal(fetched); err != nil {
			return nil, fmt.Errorf("cluster: startup catch-up: %w", err)
		}
		n.logger.Info("cluster: pulled snapshot from peer", "peer", best.ID, "entries", len(fetched))
		return fetched, nil
	}

	probe := localSeq
	if bestSeq < localSeq {
		probe = bestSeq
	}
	if probe == 0 {
		return entries, nil
	}
	fetched, err := n.fetchSnapshot(best, probe-1)
	if err != nil {
		n.logger.Warn("cluster: startup catch-up failed", "peer", best.ID, "err", err)
		return entries, nil
	}
	if len(fetched) == 0 {
		return entries, nil // peer has nothing at probe; leave the log alone
	}
	if !sameEntry(fetched[0], entries[probe-1]) {
		// Our history contradicts the cluster's at probe: resync from
		// scratch (unless the peer has no valid claim — but any peer
		// that answered and disagrees wins over a node that just died).
		fetched, err = n.fetchSnapshot(best, 0)
		if err != nil {
			return nil, fmt.Errorf("cluster: resync fetch: %w", err)
		}
		if err := n.rlog.ReplaceAll(fetched); err != nil {
			return nil, fmt.Errorf("cluster: resync: %w", err)
		}
		n.logger.Warn("cluster: local log diverged; replaced from peer",
			"peer", best.ID, "entries", len(fetched))
		return fetched, nil
	}
	add := fetched[1:]
	if len(add) == 0 {
		return entries, nil
	}
	if err := n.rlog.appendLocal(add); err != nil {
		return nil, fmt.Errorf("cluster: startup catch-up: %w", err)
	}
	n.logger.Info("cluster: caught up from peer", "peer", best.ID, "entries", len(add))
	return append(entries, add...), nil
}

// bestPeer returns the reachable peer with the highest log sequence.
func (n *Node) bestPeer() (Peer, uint64, bool) {
	var best Peer
	var bestSeq uint64
	found := false
	for _, p := range n.cfg.Peers {
		st, err := n.fetchStatus(p)
		if err != nil {
			continue
		}
		if !found || st.Seq > bestSeq {
			best, bestSeq, found = p, st.Seq, true
		}
	}
	return best, bestSeq, found
}

// Handler returns the node's full HTTP surface: the peer replication
// API plus the client API (which redirects writes while following).
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/peer/v1/", n.peerMux())
	mux.Handle("/", n.srv.Handler())
	return mux
}

// Server exposes the serving layer (tests, CLI wiring).
func (n *Node) Server() *server.Server { return n.srv }

// --- server.ClusterView (lock-free: called under the server's mutex) ---

// NodeID names this member.
func (n *Node) NodeID() string { return n.cfg.NodeID }

// IsLeader reports whether this node currently holds the lease.
func (n *Node) IsLeader() bool { return n.isLeader.Load() }

// LeaderURL returns the last known leader base URL ("" when unknown).
func (n *Node) LeaderURL() string {
	if n.isLeader.Load() {
		return n.cfg.AdvertiseURL
	}
	return *n.leaderURLv.Load()
}

// Role returns the node's current role.
func (n *Node) Role() Role {
	if n.isLeader.Load() {
		return RoleLeader
	}
	return RoleFollower
}

// Token returns the newest fencing token this node has witnessed.
func (n *Node) Token() uint64 { return n.highTok.Load() }

// publishViewLocked refreshes the atomic view from the canonical state.
// Caller holds n.mu.
func (n *Node) publishViewLocked(leaderURL string) {
	n.isLeader.Store(n.role == RoleLeader)
	if leaderURL != "" {
		u := leaderURL
		n.leaderURLv.Store(&u)
	}
	n.highTok.Store(n.highestToken)
}

// observeLease folds a lease observation into the node's view.
func (n *Node) observeLease(rec LeaseRecord) {
	n.mu.Lock()
	if rec.Token > n.highestToken {
		n.highestToken = rec.Token
	}
	url := ""
	if rec.Holder != "" && rec.Holder != n.cfg.NodeID {
		url = rec.URL
	}
	n.publishViewLocked(url)
	n.mu.Unlock()
}

// --- apply pipeline (follower side) ---

// enqueueApplyLocked queues replicated entries for ordered application
// to the local controller. Caller holds n.mu.
func (n *Node) enqueueApplyLocked(batch []store.Entry) {
	n.applyQ = append(n.applyQ, batch...)
	n.applyCond.Broadcast()
}

// applyLoop is the single consumer that applies replicated entries in
// log order. Applying outside the peer handler keeps follower acks
// gated on fsync alone; promotion waits for the queue to drain, so a
// new leader never serves stale state.
func (n *Node) applyLoop() {
	for {
		n.mu.Lock()
		for len(n.applyQ) == 0 && !n.stopped {
			n.applyCond.Wait()
		}
		if n.stopped {
			n.mu.Unlock()
			return
		}
		batch := n.applyQ
		n.applyQ = nil
		n.mu.Unlock()

		for _, e := range batch {
			if err := n.srv.Apply(e); err != nil {
				n.logger.Error("cluster: apply replicated entry failed", "seq", e.Seq, "type", e.Type, "err", err)
			}
			n.mu.Lock()
			if e.Seq > n.applied {
				n.applied = e.Seq
			}
			n.applyCond.Broadcast()
			n.mu.Unlock()
		}
	}
}

// waitApplied blocks until the controller has applied through seq.
func (n *Node) waitApplied(seq uint64) {
	n.mu.Lock()
	for n.applied < seq && !n.stopped {
		n.applyCond.Wait()
	}
	n.mu.Unlock()
}

// --- divergence recovery ---

// triggerResync starts an asynchronous full resync from the current
// leader: wipe the local log, pull the authoritative history, rebuild
// the controller by replay. Used when the replication stream shows our
// log contradicts the cluster's (we kept a fenced-off suffix).
func (n *Node) triggerResync() {
	n.mu.Lock()
	if n.resyncing || n.stopped {
		n.mu.Unlock()
		return
	}
	n.resyncing = true
	n.mu.Unlock()
	go n.resync()
}

func (n *Node) resync() {
	defer func() {
		n.mu.Lock()
		n.resyncing = false
		n.mu.Unlock()
	}()
	rec, err := n.lease.Read()
	if err != nil || rec.Holder == "" || rec.Holder == n.cfg.NodeID {
		return
	}
	fetched, err := n.fetchSnapshot(Peer{ID: rec.Holder, URL: rec.URL}, 0)
	if err != nil {
		n.logger.Warn("cluster: resync fetch failed", "err", err)
		return
	}
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.applyQ = nil
	if err := n.rlog.ReplaceAll(fetched); err != nil {
		n.mu.Unlock()
		n.logger.Error("cluster: resync replace failed", "err", err)
		return
	}
	// Rebuild the controller from the authoritative history while still
	// holding n.mu (n.mu → srv.mu is the designed lock order), so no
	// replicated entry can interleave with the rebuild.
	if err := n.srv.Reset(fetched); err != nil {
		n.mu.Unlock()
		n.logger.Error("cluster: resync replay failed", "err", err)
		return
	}
	n.applied = n.rlog.Seq()
	n.applyCond.Broadcast()
	n.mu.Unlock()
	n.logger.Info("cluster: resynced from leader", "leader", rec.Holder, "entries", len(fetched))
}

// --- election ---

// Run drives the election loop until ctx ends: leaders renew the lease
// every Election interval, followers poll it and take over when it
// expires. On a graceful exit a leader releases the lease so a follower
// can promote without waiting out the TTL.
func (n *Node) Run(ctx context.Context) {
	ticker := time.NewTicker(n.cfg.Election)
	defer ticker.Stop()
	n.ElectTick()
	for {
		select {
		case <-ctx.Done():
			n.mu.Lock()
			role, token := n.role, n.token
			n.mu.Unlock()
			if role == RoleLeader {
				if err := n.lease.Release(token); err != nil {
					n.logger.Warn("cluster: lease release failed", "err", err)
				}
			}
			return
		case <-ticker.C:
			n.ElectTick()
		}
	}
}

// ElectTick runs one pass of the election protocol. Exported so tests
// (and external clock sources) can drive elections deterministically.
func (n *Node) ElectTick() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	role, token := n.role, n.token
	n.mu.Unlock()

	if role == RoleLeader {
		if n.rlog.Fenced() {
			n.stepDown("fenced by follower ack")
			return
		}
		rec, err := n.lease.Renew(token)
		if errors.Is(err, ErrLeaseLost) {
			n.observeLease(rec)
			n.stepDown("lease lost")
			return
		}
		if err != nil {
			n.logger.Warn("cluster: lease renewal error", "err", err)
			return
		}
		telLeaseRenewals.Inc()
		return
	}

	rec, err := n.lease.Read()
	if err != nil {
		n.logger.Warn("cluster: lease read error", "err", err)
		return
	}
	n.observeLease(rec)
	if !rec.Expired(time.Now()) {
		return // healthy leader elsewhere
	}
	n.tryPromote()
}

// tryPromote attempts the follower→leader transition: catch up to the
// most advanced reachable peer (a lease-based election is not
// log-aware, so the new leader must pull any committed entries it
// lacks), take the lease, drain the apply queue, install the fencing
// token, and record the change in the replicated log.
func (n *Node) tryPromote() {
	t0 := time.Now()
	n.promoteCatchUp()
	rec, held, err := n.lease.TryAcquire()
	if err != nil {
		n.logger.Warn("cluster: lease acquire error", "err", err)
		return
	}
	n.observeLease(rec)
	if !held {
		return // lost the race; rec names the winner
	}
	n.waitApplied(n.rlog.Seq())

	n.mu.Lock()
	n.role = RoleLeader
	n.token = rec.Token
	if rec.Token > n.highestToken {
		n.highestToken = rec.Token
	}
	n.publishViewLocked(n.cfg.AdvertiseURL)
	n.mu.Unlock()
	n.rlog.SetToken(rec.Token)

	// Leadership is durable history: an informational WAL entry that
	// replicates like everything else (and doubles as the new token's
	// announcement to followers).
	if _, err := n.rlog.Append(store.Entry{
		Type: store.EntryLeadership, Node: n.cfg.NodeID,
		Token: rec.Token, Reason: "elected",
	}); err != nil && !errors.Is(err, ErrNoQuorum) {
		n.logger.Warn("cluster: leadership entry append", "err", err)
	}
	d := time.Since(t0)
	telTakeovers.Inc()
	telTakeoverSeconds.Observe(d.Seconds())
	n.logger.Info("cluster: promoted to leader",
		"node", n.cfg.NodeID, "token", rec.Token, "takeover", d)
}

// promoteCatchUp pulls any entries a reachable peer holds beyond our
// log, so promotion never loses an acknowledged write that survived on
// another follower.
func (n *Node) promoteCatchUp() {
	best, bestSeq, ok := n.bestPeer()
	if !ok || bestSeq <= n.rlog.Seq() {
		return
	}
	fetched, err := n.fetchSnapshot(best, n.rlog.Seq())
	if err != nil {
		n.logger.Warn("cluster: pre-promotion catch-up failed", "peer", best.ID, "err", err)
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.rlog.appendLocal(fetched); err != nil {
		n.logger.Warn("cluster: pre-promotion append failed", "err", err)
		return
	}
	n.enqueueApplyLocked(fetched)
}

// stepDown demotes this node to follower.
func (n *Node) stepDown(reason string) {
	n.mu.Lock()
	n.stepDownLocked(reason)
	n.mu.Unlock()
}

// stepDownLocked is stepDown with n.mu held (peer handler path).
func (n *Node) stepDownLocked(reason string) {
	if n.role != RoleLeader {
		return
	}
	n.role = RoleFollower
	n.token = 0
	n.publishViewLocked("")
	n.rlog.SetToken(0)
	telLeaseLosses.Inc()
	n.logger.Warn("cluster: stepped down", "node", n.cfg.NodeID, "reason", reason)
}

// Close shuts the node down gracefully: settle the serving layer, stop
// the apply loop, close the log.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return nil
	}
	n.stopped = true
	n.applyCond.Broadcast()
	n.mu.Unlock()
	return n.srv.Close() // closes the replicated log via the WAL interface
}
