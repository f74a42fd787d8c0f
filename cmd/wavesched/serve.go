package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wavesched/internal/admission"
	"wavesched/internal/cluster"
	"wavesched/internal/controller"
	"wavesched/internal/netgraph"
	"wavesched/internal/server"
	"wavesched/internal/telemetry"
)

// HTTP server hardening for the main API listener: a client that stalls
// mid-headers or parks an idle keep-alive connection cannot pin a
// handler goroutine (or a file descriptor) forever. Vars, not consts,
// so the slow-client test can shrink them to test scale.
var (
	serveReadHeaderTimeout = 5 * time.Second
	serveIdleTimeout       = 120 * time.Second
)

// serveOptions collects the `wavesched serve` flags.
type serveOptions struct {
	Addr          string
	NetPath       string
	Tau           time.Duration // wall-clock period; the virtual τ is Tau.Seconds()
	SliceLen      float64
	Policy        string
	K             int
	Alpha         float64
	BMax          float64
	WALDir        string
	SnapshotEvery int
	LogLevel      string
	TracePath     string
	FlightFrames  int
	FlightDir     string

	// Admission policy (tenant quotas, priority classes).
	QuotasRaw     []string
	PriorityRaw   string
	RequireTenant bool
	Admission     *admission.Config

	// Cluster mode (enabled by -node-id).
	NodeID     string
	Advertise  string
	PeersRaw   string
	Peers      []cluster.Peer
	Quorum     int
	ClusterDir string
	LeaseTTL   time.Duration
}

// parseServeFlags parses the serve subcommand's argument list.
func parseServeFlags(args []string) (serveOptions, error) {
	var o serveOptions
	fs := flag.NewFlagSet("wavesched serve", flag.ContinueOnError)
	fs.StringVar(&o.Addr, "addr", ":8080", "HTTP listen address for the job API, /metrics, and /debug/pprof")
	fs.StringVar(&o.NetPath, "net", "", "network JSON (required)")
	fs.DurationVar(&o.Tau, "tau", 2*time.Second, "wall-clock scheduling period; one epoch runs per period, advancing the virtual clock by τ = the period in seconds")
	fs.Float64Var(&o.SliceLen, "slice-len", 1, "slice duration in virtual seconds (τ must be a multiple)")
	fs.StringVar(&o.Policy, "policy", "maxthroughput", "controller policy: maxthroughput, ret, or reject")
	fs.IntVar(&o.K, "k", 4, "allowed paths per job")
	fs.Float64Var(&o.Alpha, "alpha", 0.1, "stage-2 fairness slack")
	fs.Float64Var(&o.BMax, "bmax", 5, "RET extension ceiling")
	fs.StringVar(&o.WALDir, "wal", "", "directory for the durable WAL/snapshot log (empty = in-memory)")
	fs.IntVar(&o.SnapshotEvery, "snapshot-every", 1024, "compact the WAL into the snapshot after this many entries (0 = never)")
	fs.StringVar(&o.LogLevel, "log-level", "info", "log level: debug, info, warn, or error")
	fs.StringVar(&o.TracePath, "trace", "", "write solver/scheduler trace spans (JSONL) to this file")
	fs.IntVar(&o.FlightFrames, "flight-frames", 64, "epochs of full solve detail retained by the flight recorder (0 = off)")
	fs.StringVar(&o.FlightDir, "flight-dir", "", "directory for flight-recorder anomaly dumps (default: the WAL directory)")
	fs.Func("quota", "tenant policy as [tenant:]k=v pairs (rate, burst, max_jobs, max_demand); no tenant prefix sets the default policy; repeatable, e.g. -quota cms:rate=50,max_jobs=200 -quota rate=10", func(v string) error {
		o.QuotasRaw = append(o.QuotasRaw, v)
		return nil
	})
	fs.StringVar(&o.PriorityRaw, "priority", "", "priority-class weight multipliers as class=mult pairs, e.g. critical=8,standard=1,scavenger=0.125 (empty = built-in defaults)")
	fs.BoolVar(&o.RequireTenant, "require-tenant", false, "reject submissions whose tenant has no -quota entry (403)")
	fs.StringVar(&o.NodeID, "node-id", "", "cluster member name; enables HA cluster mode (requires -cluster-dir, -advertise, -wal)")
	fs.StringVar(&o.Advertise, "advertise", "", "base URL peers and redirected clients reach this node at, e.g. http://10.0.0.1:8080")
	fs.StringVar(&o.PeersRaw, "peers", "", "other cluster members as id=url pairs, comma-separated: n2=http://host2:8080,n3=http://host3:8080")
	fs.IntVar(&o.Quorum, "quorum", 0, "members (counting this node) that must fsync a write before it is acknowledged; 0 = majority")
	fs.StringVar(&o.ClusterDir, "cluster-dir", "", "shared directory holding the leader lease record")
	fs.DurationVar(&o.LeaseTTL, "lease-ttl", 3*time.Second, "leader lease duration; bounds failover time")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.NetPath == "" {
		return o, fmt.Errorf("serve: -net is required")
	}
	if o.Tau <= 0 {
		return o, fmt.Errorf("serve: -tau must be positive")
	}
	if err := checkSolverFlags(o.K, o.Alpha, o.BMax); err != nil {
		return o, fmt.Errorf("serve: %w", err)
	}
	acfg, err := buildAdmissionConfig(o)
	if err != nil {
		return o, err
	}
	o.Admission = acfg
	if o.NodeID != "" {
		if o.ClusterDir == "" {
			return o, fmt.Errorf("serve: cluster mode requires -cluster-dir (shared lease directory)")
		}
		if o.WALDir == "" {
			return o, fmt.Errorf("serve: cluster mode requires -wal (per-node log directory)")
		}
		if o.Advertise == "" {
			return o, fmt.Errorf("serve: cluster mode requires -advertise")
		}
		peers, err := parsePeers(o.PeersRaw, o.NodeID)
		if err != nil {
			return o, err
		}
		o.Peers = peers
	} else if o.PeersRaw != "" || o.ClusterDir != "" {
		return o, fmt.Errorf("serve: -peers/-cluster-dir require -node-id (cluster mode)")
	}
	return o, nil
}

// buildAdmissionConfig assembles the admission subsystem's policy from
// the -quota/-priority/-require-tenant flags.
func buildAdmissionConfig(o serveOptions) (*admission.Config, error) {
	cfg := &admission.Config{RequireTenant: o.RequireTenant}
	for _, raw := range o.QuotasRaw {
		tenant, tp, err := parseQuota(raw)
		if err != nil {
			return nil, err
		}
		if tenant == "" {
			cfg.Default = tp
			continue
		}
		if cfg.Tenants == nil {
			cfg.Tenants = make(map[string]admission.TenantPolicy)
		}
		cfg.Tenants[tenant] = tp
	}
	if o.PriorityRaw != "" {
		weights, err := parseClassWeights(o.PriorityRaw)
		if err != nil {
			return nil, err
		}
		cfg.ClassWeights = weights
	}
	return cfg, nil
}

// parseQuota decodes one -quota value: "[tenant:]k=v,k=v" with keys
// rate, burst, max_jobs, max_demand. An empty tenant names the default
// policy applied to unconfigured tenants.
func parseQuota(raw string) (string, admission.TenantPolicy, error) {
	tenant, spec := "", raw
	if i := strings.IndexByte(raw, ':'); i >= 0 {
		tenant, spec = raw[:i], raw[i+1:]
	}
	var tp admission.TenantPolicy
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return "", tp, fmt.Errorf("serve: bad -quota entry %q (want k=v)", part)
		}
		var err error
		switch k {
		case "rate":
			tp.RatePerSec, err = parseFinite(v)
		case "burst":
			tp.Burst, err = parseFinite(v)
		case "max_jobs":
			tp.MaxJobs, err = strconv.Atoi(v)
		case "max_demand":
			tp.MaxDemand, err = parseFinite(v)
		default:
			return "", tp, fmt.Errorf("serve: unknown -quota key %q (want rate, burst, max_jobs, or max_demand)", k)
		}
		if err != nil {
			return "", tp, fmt.Errorf("serve: bad -quota value %q: %v", part, err)
		}
	}
	return tenant, tp, nil
}

// parseFinite parses a float flag value and refuses NaN and ±Inf, which
// ParseFloat accepts.
func parseFinite(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		err = fmt.Errorf("%g is not a finite number", f)
	}
	return f, err
}

// parseClassWeights decodes the -priority value: "class=mult" pairs
// overriding the built-in stage-2 weight multipliers.
func parseClassWeights(raw string) (map[admission.Class]float64, error) {
	out := make(map[admission.Class]float64)
	for _, part := range strings.Split(raw, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("serve: bad -priority entry %q (want class=multiplier)", part)
		}
		class, err := admission.ParseClass(k)
		if err != nil {
			return nil, fmt.Errorf("serve: %v", err)
		}
		mult, err := parseFinite(v)
		if err != nil || !(mult > 0) {
			return nil, fmt.Errorf("serve: bad -priority multiplier %q (want a finite positive number)", part)
		}
		out[class] = mult
	}
	return out, nil
}

// parsePeers decodes "id=url,id=url", skipping this node's own entry so
// a cluster can share one -peers value across members.
func parsePeers(raw, self string) ([]cluster.Peer, error) {
	if raw == "" {
		return nil, nil
	}
	var peers []cluster.Peer
	for _, part := range strings.Split(raw, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("serve: bad -peers entry %q (want id=url)", part)
		}
		if id == self {
			continue
		}
		peers = append(peers, cluster.Peer{ID: id, URL: strings.TrimSuffix(url, "/")})
	}
	return peers, nil
}

// loadServeGraph reads the topology named by the options.
func loadServeGraph(o serveOptions) (*netgraph.Graph, error) {
	nf, err := os.Open(o.NetPath)
	if err != nil {
		return nil, err
	}
	defer nf.Close()
	if strings.HasSuffix(o.NetPath, ".brite") {
		return netgraph.ReadBRITE(nf, 0)
	}
	return netgraph.ReadJSON(nf)
}

// serverConfig maps the parsed options onto the serving layer's config.
func serverConfig(o serveOptions) (server.Config, error) {
	policy, err := parsePolicy(o.Policy)
	if err != nil {
		return server.Config{}, err
	}
	return server.Config{
		Controller: controller.Config{
			Tau: o.Tau.Seconds(), SliceLen: o.SliceLen, K: o.K,
			Alpha: o.Alpha, BMax: o.BMax, Policy: policy,
			Solver: lpOptions(), Tracer: tracer,
		},
		Period:        o.Tau,
		WALDir:        o.WALDir,
		SnapshotEvery: o.SnapshotEvery,
		FlightFrames:  o.FlightFrames,
		FlightDir:     o.FlightDir,
		Admission:     o.Admission,
	}, nil
}

// buildServer loads the topology and constructs the daemon core from the
// parsed options (shared by runServe and its tests).
func buildServer(o serveOptions) (*server.Server, *netgraph.Graph, error) {
	g, err := loadServeGraph(o)
	if err != nil {
		return nil, nil, err
	}
	cfg, err := serverConfig(o)
	if err != nil {
		return nil, nil, err
	}
	srv, err := server.New(g, cfg)
	if err != nil {
		return nil, nil, err
	}
	return srv, g, nil
}

// buildNode constructs a cluster member from the parsed options.
func buildNode(o serveOptions) (*cluster.Node, *netgraph.Graph, error) {
	g, err := loadServeGraph(o)
	if err != nil {
		return nil, nil, err
	}
	cfg, err := serverConfig(o)
	if err != nil {
		return nil, nil, err
	}
	cfg.WALDir = "" // the node owns the log; the server appends through it
	node, err := cluster.NewNode(g, cfg, cluster.Config{
		NodeID:        o.NodeID,
		AdvertiseURL:  strings.TrimSuffix(o.Advertise, "/"),
		Peers:         o.Peers,
		ClusterDir:    o.ClusterDir,
		WALDir:        o.WALDir,
		SnapshotEvery: o.SnapshotEvery,
		Quorum:        o.Quorum,
		LeaseTTL:      o.LeaseTTL,
	})
	if err != nil {
		return nil, nil, err
	}
	return node, g, nil
}

// runServe is the `wavesched serve` entry point: it runs the scheduler
// daemon until ctx is cancelled (SIGINT/SIGTERM in production), then
// shuts down gracefully — stop accepting HTTP, settle the in-flight
// commitment, release the WAL.
func runServe(ctx context.Context, w io.Writer, args []string) error {
	o, err := parseServeFlags(args)
	if err != nil {
		return err
	}
	if err := setupLogging(o.LogLevel); err != nil {
		return err
	}
	if o.TracePath != "" {
		tr, err := telemetry.OpenTraceFile(o.TracePath)
		if err != nil {
			return err
		}
		// Flush and close as part of graceful shutdown so the last epoch's
		// spans reach disk before the process exits.
		defer func() {
			if err := tr.Close(); err != nil {
				slog.Warn("serve: closing trace file", "err", err)
			}
		}()
		tracer = tr
		slog.Info("serve: tracing enabled", "file", o.TracePath)
	}
	var (
		srv     *server.Server
		node    *cluster.Node
		g       *netgraph.Graph
		handler http.Handler
	)
	if o.NodeID != "" {
		node, g, err = buildNode(o)
		if err != nil {
			return err
		}
		srv = node.Server()
		handler = node.Handler()
	} else {
		srv, g, err = buildServer(o)
		if err != nil {
			return err
		}
		handler = srv.Handler()
	}

	// SIGQUIT dumps the flight recorder without shutting down — the
	// operator's "what just happened" lever on a live daemon.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	defer signal.Stop(quit)
	go func() {
		for range quit {
			if path, err := srv.DumpFlight("sigquit"); err != nil {
				slog.Error("serve: flight-recorder dump failed", "err", err)
			} else if path != "" {
				slog.Info("serve: flight-recorder dump", "path", path)
			} else {
				slog.Info("serve: flight recorder disabled; nothing to dump")
			}
		}
	}()

	ln, err := net.Listen("tcp", o.Addr)
	if err != nil {
		srv.Close()
		return err
	}
	fmt.Fprintf(w, "wavesched serve: %q (%d nodes, %d edges) on http://%s  τ=%s policy=%s",
		g.Name, g.NumNodes(), g.NumEdges(), ln.Addr(), o.Tau, o.Policy)
	if o.WALDir != "" {
		fmt.Fprintf(w, "  wal=%s", o.WALDir)
	}
	if o.NodeID != "" {
		fmt.Fprintf(w, "  node=%s peers=%d quorum=%d", o.NodeID, len(o.Peers), o.Quorum)
	}
	fmt.Fprintln(w)

	httpSrv := &http.Server{
		Handler: handler,
		// A stalled half-open connection (headers never finish) or a
		// parked idle keep-alive must not hold resources indefinitely.
		ReadHeaderTimeout: serveReadHeaderTimeout,
		IdleTimeout:       serveIdleTimeout,
	}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(ln) }()
	loopDone := make(chan struct{})
	go func() { defer close(loopDone); _ = srv.Run(ctx) }()
	electDone := make(chan struct{})
	if node != nil {
		go func() { defer close(electDone); node.Run(ctx) }()
	} else {
		close(electDone)
	}

	var serveErr error
	select {
	case <-ctx.Done():
		slog.Info("serve: shutting down")
	case err := <-httpErr:
		serveErr = fmt.Errorf("serve: http: %w", err)
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && serveErr == nil {
		serveErr = fmt.Errorf("serve: shutdown: %w", err)
	}
	<-loopDone
	<-electDone // a graceful leader exit releases the lease first
	var closeErr error
	if node != nil {
		closeErr = node.Close()
	} else {
		closeErr = srv.Close()
	}
	if closeErr != nil && serveErr == nil {
		serveErr = fmt.Errorf("serve: close: %w", closeErr)
	}
	return serveErr
}

// serveMain wires runServe to the process: signal-driven cancellation
// and fatal error reporting.
func serveMain(args []string) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runServe(ctx, os.Stdout, args); err != nil {
		fatal("%v", err)
	}
}
