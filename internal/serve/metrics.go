package serve

import (
	"sync"
	"time"

	v1 "mepipe/api/v1"
	"mepipe/internal/obs"
)

// cacheOutcome labels how a request was satisfied; it is also the value
// of the X-Mepipe-Cache response header.
type cacheOutcome string

const (
	cacheHit       cacheOutcome = "hit"
	cacheMiss      cacheOutcome = "miss"
	cacheCoalesced cacheOutcome = "coalesced"
	cacheNone      cacheOutcome = "" // endpoint does not cache
)

// metrics aggregates per-endpoint counters and latency histograms for
// GET /v1/stats. Latency distributions ride on obs.Histogram, the same
// fixed-bucket histogram the trace layer uses for queue waits.
type metrics struct {
	mu        sync.Mutex
	start     time.Time
	endpoints map[string]*endpointMetrics
}

type endpointMetrics struct {
	requests, errors        int64
	hits, misses, coalesced int64
	latency                 obs.Histogram
}

func newMetrics(start time.Time) *metrics {
	return &metrics{start: start, endpoints: make(map[string]*endpointMetrics)}
}

// observe records one served request.
func (m *metrics) observe(endpoint string, status int, outcome cacheOutcome, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	em := m.endpoints[endpoint]
	if em == nil {
		em = &endpointMetrics{}
		m.endpoints[endpoint] = em
	}
	em.requests++
	if status >= 400 {
		em.errors++
	}
	switch outcome {
	case cacheHit:
		em.hits++
	case cacheMiss:
		em.misses++
	case cacheCoalesced:
		em.coalesced++
	}
	em.latency.Observe(seconds)
}

// snapshot renders the counters as the wire stats document.
func (m *metrics) snapshot(now time.Time, cache *lruCache) *v1.StatsResponse {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := &v1.StatsResponse{
		API:       v1.Version,
		UptimeS:   now.Sub(m.start).Seconds(),
		Endpoints: make(map[string]v1.EndpointStats, len(m.endpoints)),
	}
	for name, em := range m.endpoints {
		out.Endpoints[name] = v1.EndpointStats{
			Requests: em.requests, Errors: em.errors,
			Hits: em.hits, Misses: em.misses, Coalesced: em.coalesced,
			LatencyMeanS: em.latency.Mean(), LatencyMaxS: em.latency.Max,
			LatencyP50S: em.latency.Quantile(0.5), LatencyP90S: em.latency.Quantile(0.9),
			LatencyP99S: em.latency.Quantile(0.99),
		}
	}
	entries, capacity, evictions := cache.Stats()
	out.Cache = v1.CacheStats{Entries: entries, Capacity: capacity, Evictions: evictions}
	return out
}
