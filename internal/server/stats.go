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
		resp.Ingest.IngestorStats = ing.Stats()
		// Fold apply errors from fire-and-forget requests into the
		// server's accumulators (sync requests report theirs inline and
		// drain the same buffer at flush time, so nothing double-counts).
		if errs := ing.ApplyErrors(); len(errs) > 0 {
			s.ingErrCount.Add(int64(len(errs)))
			s.ingErrMu.Lock()
			s.ingErrLast = errs[len(errs)-1].Error()
			s.ingErrMu.Unlock()
		}
	}
	if n := s.ingErrCount.Load(); n > 0 {
		s.ingErrMu.Lock()
		resp.Ingest.LastApplyError = s.ingErrLast
		s.ingErrMu.Unlock()
		resp.Ingest.ApplyErrorCount = n
	}
	WriteJSON(w, http.StatusOK, resp)
}
