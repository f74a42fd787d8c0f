package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wavesched/internal/controller"
	"wavesched/internal/netgraph"
)

// leaderStub makes the cluster hooks take their active path without any
// cluster machinery behind them, isolating the hooks' own cost.
type leaderStub struct{}

func (leaderStub) NodeID() string    { return "bench" }
func (leaderStub) IsLeader() bool    { return true }
func (leaderStub) LeaderURL() string { return "http://bench" }

func benchSubmitPath(b *testing.B, cv ClusterView) {
	g := netgraph.Ring(4, 2, 10)
	s, err := New(g, Config{
		Controller: controller.Config{Tau: 1, SliceLen: 1, K: 2, Policy: controller.PolicyMaxThroughput},
		Cluster:    cv,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"id": %d, "src": 0, "dst": 2, "size": 1, "start": 0, "end": 1e9}`, i+1)
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			b.Fatalf("submit %d: code %d body %s", i+1, rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkClusterHooks quantifies what the HA hooks cost a single-node
// deployment: the queued write path (enqueue, pump drain, apply) with no
// ClusterView versus with the hooks active. The off/on ratio is
// gated at ≤2% by `make bench-cluster-guard` (part of bench-smoke) —
// the hooks are one nil interface check plus an atomic load, and must
// stay that cheap.
func BenchmarkClusterHooks(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchSubmitPath(b, nil) })
	b.Run("on", func(b *testing.B) { benchSubmitPath(b, leaderStub{}) })
}
