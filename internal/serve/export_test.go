package serve

import (
	"strconv"

	"relive/internal/obs"
	"relive/internal/store"
)

// FlightWaiters returns how many callers are waiting on the router's
// coalescing cells, summed over keys; a cell's leader counts as one.
func (rt *Router) FlightWaiters() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n := 0
	for _, c := range rt.flight {
		n += c.waiters
	}
	return n
}

// Trace returns the recorder backing /metrics.
func (s *Server) Trace() *obs.Trace { return s.tr }

// Store returns the persistent artifact store (nil when persistence is
// off).
func (s *Server) Store() *store.Store { return s.store }

// IndexedBodies returns how many request bodies the request-bytes index
// holds.
func (s *Server) IndexedBodies() int { return s.bodies.Len() }

// EvictReports pushes every report out of the report LRU by filling it
// with placeholder entries; the request-bytes index keeps its entries.
func (s *Server) EvictReports() {
	for i := 0; i < s.cfg.ReportEntries; i++ {
		s.reports.Add("evicted-"+strconv.Itoa(i), nil)
	}
}
