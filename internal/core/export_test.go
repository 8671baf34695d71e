package core

// AbortedRequests returns the number of client-cancelled requests.
func (s *System) AbortedRequests() int { return s.aborted }
