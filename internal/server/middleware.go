package server

import (
	"context"
	"errors"
	"net/http"
	"runtime/debug"
)

// recoverPanics converts a handler panic into a 500 with a JSON error body
// (when nothing has been written yet) instead of tearing down the
// connection, and counts it in /metrics. http.ErrAbortHandler is re-raised:
// it is the sanctioned way to abort a response.
func (s *Server) recoverPanics(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.panics.Inc()
			s.logger.Error("panic in handler",
				"method", r.Method,
				"path", r.URL.Path,
				"request_id", requestID(w),
				"panic", rec,
				"stack", string(debug.Stack()))
			if sw, ok := w.(*statusWriter); !ok || !sw.wrote {
				writeErr(w, http.StatusInternalServerError, "internal error: handler panicked")
			}
		}()
		h(w, r)
	}
}

// withDeadline applies Config.RequestTimeout to the request context. Query
// execution observes the deadline between morsels; expired requests get 503
// through the handlers' error mapping.
func (s *Server) withDeadline(h http.HandlerFunc) http.HandlerFunc {
	if s.cfg.RequestTimeout <= 0 {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// gateWrites refuses mutating requests while the server drains, steering
// clients to retry against the replacement process.
func (s *Server) gateWrites(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable, "server is draining; retry against the replacement")
			return
		}
		h(w, r)
	}
}

// admitBuild bounds concurrently admitted session builds. A full semaphore
// answers 429 + Retry-After immediately instead of queueing: a session
// build can run for seconds, and a bounded queue would just move the
// timeout somewhere less visible.
func (s *Server) admitBuild(h http.HandlerFunc) http.HandlerFunc {
	if s.buildSlots == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.buildSlots <- struct{}{}:
		default:
			s.admissionRejects.Inc()
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusTooManyRequests, "too many session builds in flight; retry shortly")
			return
		}
		defer func() { <-s.buildSlots }()
		h(w, r)
	}
}

// isDeadline reports whether err stems from the request deadline or a
// cancelled client connection.
func isDeadline(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}
