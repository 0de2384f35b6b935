package serve

import (
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
