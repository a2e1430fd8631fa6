package server

// Abandon stops every model's ingest loop without the final checkpoint a
// graceful Close writes (model.shutdown(false)), so a test that abandons a
// server to simulate a crash leaves no checkpoint timer writing into the
// data directory while a second server recovers from it, or after the
// test returns.
func Abandon(s *Server) {
	for _, m := range s.reg.list() {
		m.shutdown(false)
	}
}
