package schedule

import (
	"container/list"
	"sort"
	"strconv"
	"strings"
	"sync"

	"wavesched/internal/netgraph"
	"wavesched/internal/paths"
)

// pathCacheKey identifies one path-set computation: the endpoints, the
// construction parameters, and the set of edges excluded from routing
// (dead links). Two residual topologies of the same base graph with the
// same failed links produce identical keys — and identical path sets —
// so repeated masking of the same failure hits the cache. colgen entries
// hold the column-generation starting set for a pair (seeds at first, then
// whatever GeneratePaths last published: the seeds plus the paths a master
// optimum used), keyed by the seed size in k; they never collide with
// enumerated entries.
type pathCacheKey struct {
	src, dst netgraph.NodeID
	k        int
	colgen   bool
	avoid    string // sorted failed-edge IDs, "-" separated
}

// DefaultPathCacheSize is the entry bound of NewPathCache. At ~K paths of
// a few edges each per entry, 4096 entries is a few MB — enough for every
// (src, dst) pair of a 400-node deployment plus a healthy set of failure
// variants, while bounding the worst case (churning failure sets on a
// 1000-node topology would otherwise grow the map without limit).
const DefaultPathCacheSize = 4096

// PathCache memoizes per-(src, dst) path sets across instance builds,
// keyed by the avoided-edge set. PathSet, and through it NewInstanceOpts,
// consults it when InstanceOptions.PathCache is set; the controller keeps
// one per base topology and looks a job's set up when it accepts the job,
// so each epoch's rebuild — and each re-plan against a repeated link
// failure — skips the k-shortest-path computation entirely.
//
// A cache is bound to one base topology (node/edge structure and costs):
// entries are keyed by endpoints and failures only, so sharing a cache
// across structurally different graphs returns wrong paths. Failures are
// assumed to manifest as zero-wavelength edges (as WithLinksDown
// produces), which NewDeadLinks folds into the avoid set.
//
// The cache holds at most its size bound (DefaultPathCacheSize unless
// NewPathCacheSize chose otherwise) and evicts least-recently-used
// entries beyond it, so long-lived controllers facing adversarial failure
// churn stay bounded.
//
// Safe for concurrent use.
type PathCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[pathCacheKey]*list.Element
	order    *list.List // front = most recently used
}

type pathCacheEntry struct {
	key pathCacheKey
	ps  []paths.Path
}

// NewPathCache returns an empty cache bounded at DefaultPathCacheSize
// entries.
func NewPathCache() *PathCache { return NewPathCacheSize(DefaultPathCacheSize) }

// NewPathCacheSize returns an empty cache bounded at size entries;
// non-positive selects DefaultPathCacheSize.
func NewPathCacheSize(size int) *PathCache {
	if size <= 0 {
		size = DefaultPathCacheSize
	}
	return &PathCache{
		capacity: size,
		entries:  make(map[pathCacheKey]*list.Element),
		order:    list.New(),
	}
}

// avoidKey canonicalizes an avoided-edge set into a cache-key string.
func avoidKey(avoid map[netgraph.EdgeID]bool) string {
	if len(avoid) == 0 {
		return ""
	}
	ids := make([]int, 0, len(avoid))
	for e := range avoid {
		ids = append(ids, int(e))
	}
	sort.Ints(ids)
	var sb strings.Builder
	for i, id := range ids {
		if i > 0 {
			sb.WriteByte('-')
		}
		sb.WriteString(strconv.Itoa(id))
	}
	return sb.String()
}

// get computes (or returns the memoized) path set for one endpoint pair
// under the given avoid set. compute runs under the lock — path
// computation is fast relative to lock hold times at instance-build
// granularity, and holding the lock keeps duplicate concurrent computes
// out.
func (pc *PathCache) get(key pathCacheKey, compute func() []paths.Path) []paths.Path {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.entries[key]; ok {
		pc.order.MoveToFront(el)
		telPathCacheHits.Inc()
		return el.Value.(*pathCacheEntry).ps
	}
	ps := compute()
	pc.insert(key, ps)
	telPathCacheMisses.Inc()
	return ps
}

// put inserts or overwrites an entry. GeneratePaths publishes through it
// what the next epoch's instance build should start from.
func (pc *PathCache) put(key pathCacheKey, ps []paths.Path) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.entries[key]; ok {
		el.Value.(*pathCacheEntry).ps = ps
		pc.order.MoveToFront(el)
		return
	}
	pc.insert(key, ps)
}

// insert adds a fresh entry at the recency front and evicts from the back
// past the size bound. Callers hold pc.mu.
func (pc *PathCache) insert(key pathCacheKey, ps []paths.Path) {
	pc.entries[key] = pc.order.PushFront(&pathCacheEntry{key: key, ps: ps})
	for len(pc.entries) > pc.capacity {
		back := pc.order.Back()
		if back == nil {
			break
		}
		pc.order.Remove(back)
		delete(pc.entries, back.Value.(*pathCacheEntry).key)
		telPathCacheEvictions.Inc()
	}
}
