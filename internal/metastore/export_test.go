package metastore

// Get reads a key via callback after the RTT. During a partition the read
// reports absence; error-aware callers use GetE.
func (s *Store) Get(key string, fn func(value string, ok bool)) {
	s.gets++
	s.run(func(err error) {
		if err != nil {
			fn("", false)
			return
		}
		v, ok := s.data[key]
		fn(v, ok)
	})
}
