package server

import "net/http"

func (s *Server) handleQueryStats(w http.ResponseWriter, r *http.Request) {
	q := s.queryFor(w, r)
	if q == nil {
		return
	}
	WriteJSON(w, http.StatusOK, QueryStatsResp{ID: q.ID(), Stats: q.Stats()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResp{
		SessionStats:  s.sess.Stats(),
		ServedWrites:  s.writes.Load(),
		ServedReads:   s.reads.Load(),
		ServedWatches: s.watches.Load(),
		Durability:    s.sess.DurabilityStats(),
	}
	if ing := s.ing.Load(); ing != nil {
		resp.Ingest = ing.Stats()
	}
	WriteJSON(w, http.StatusOK, resp)
}
