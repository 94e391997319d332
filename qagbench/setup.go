package main

import (
	"fmt"
	"time"

	"qagview/internal/server"
)

// loadTables creates every table of d on the server.
func loadTables(c caller, d *dataset) error {
	for _, name := range d.order {
		if err := callJSON(c, "POST", "/v1/tables", d.bodies[name], 201, nil); err != nil {
			return err
		}
	}
	return nil
}

type sessionReply struct {
	Session    string `json:"session"`
	N          int    `json:"n"`
	Clusters   int    `json:"clusters"`
	Reused     bool   `json:"reused"`
	StoreReady bool   `json:"store_ready"`
}

// openSessions creates the sessions and returns their ids.
func openSessions(c caller, specs []sessSpec) ([]string, error) {
	ids := make([]string, len(specs))
	for i, s := range specs {
		var r sessionReply
		if err := callJSON(c, "POST", "/v1/sessions", s.body(), 201, &r); err != nil {
			return nil, err
		}
		ids[i] = r.Session
	}
	return ids, nil
}

// waitStores polls until every session's (k, D) store is built.
func waitStores(c caller, ids []string) error {
	deadline := time.Now().Add(90 * time.Second)
	for _, id := range ids {
		for {
			var r sessionReply
			if err := callJSON(c, "GET", "/v1/sessions/"+id, nil, 200, &r); err != nil {
				return err
			}
			if r.StoreReady {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("session %s: store not ready after 90s", id)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// warmUp brings a server to the warm state of explore and live: tables
// loaded, sessions open, their stores built. It returns the session ids.
func warmUp(c caller, data *dataset, specs []sessSpec) ([]string, error) {
	if err := loadTables(c, data); err != nil {
		return nil, err
	}
	ids, err := openSessions(c, specs)
	if err != nil {
		return nil, err
	}
	return ids, waitStores(c, ids)
}

// warmModel loads data into m and opens specs with their stores built. It
// returns the specs with L capped, the sessions, and for each session the
// smallest k its store holds per D.
func warmModel(m *model, data *dataset, specs []sessSpec) ([]sessSpec, []*msess, []map[int]int, error) {
	if err := m.load(data); err != nil {
		return nil, nil, nil, err
	}
	specs, sess, err := m.openAll(specs)
	if err != nil {
		return nil, nil, nil, err
	}
	minSize := make([]map[int]int, len(sess))
	for i, ms := range sess {
		st, err := m.storeOf(ms)
		if err != nil {
			return nil, nil, nil, err
		}
		minSize[i] = st.Guidance().MinSizes
	}
	return specs, sess, minSize, nil
}

// inprocServer builds the in-process server of a traced replay, configured
// like the daemon the measured run started. Stop it with Drain.
func inprocServer(e *env, walDir string) (*server.Server, caller, error) {
	srv := server.New(server.Config{ExecParallelism: e.nproc, WALDir: walDir})
	if walDir != "" {
		if _, err := srv.Recover(); err != nil {
			srv.Close()
			return nil, nil, err
		}
	}
	return srv, inprocCaller{srv.Handler()}, nil
}
