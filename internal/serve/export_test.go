package serve

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
