package server

// ConnsInFlight reports the most requests any open connection holds in
// flight, and the per-connection bound past which its reader stops reading.
func ConnsInFlight(s *Server) (most, bound int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		most = max(most, len(c.sem))
	}
	return most, maxInFlight
}
