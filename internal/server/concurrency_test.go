package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentSessionTraffic hammers shared sessions from many goroutines
// with mixed solution and diff reads while the background precompute is
// still running, plus concurrent identical session creates racing the
// singleflight. Run under -race this pins the server's central concurrency
// claims: reads never block on (or corrupt) a build, identical creates
// collapse to one build, and the metrics/cache bookkeeping stays
// consistent.
func TestConcurrentSessionTraffic(t *testing.T) {
	// Unlimited admission: this test deliberately drives more concurrent
	// creates than the default build semaphore would admit (the 429 path has
	// its own test in durable_test.go).
	srv, ts := testServer(t, Config{MaxInflightBuilds: -1})

	// A second, larger table so two sessions with different shapes share the
	// server.
	if resp := post(t, ts, "/v1/tables", map[string]any{
		"name":  "big",
		"csv":   makeCSV(4, 4, 3),
		"kinds": map[string]string{"v": "float"},
	}); resp.code != http.StatusCreated {
		t.Fatalf("creating big table: %d %s", resp.code, resp.raw)
	}
	bigSQL := strings.ReplaceAll(testSQL, "FROM t", "FROM big")

	const (
		creators = 4  // goroutines racing identical session creates
		readers  = 8  // goroutines hammering solutions/diffs
		rounds   = 40 // reads per reader
	)
	kmax := 6
	ds := []int{0, 1, 2}

	// Phase 0: everyone starts together; creators race the singleflight for
	// the same two sessions readers will use.
	ids := make([]string, creators)
	var wg sync.WaitGroup
	for c := 0; c < creators; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sql := testSQL
			if c%2 == 1 {
				sql = bigSQL
			}
			resp := post(t, ts, "/v1/sessions", map[string]any{
				"sql": sql, "l": 8, "kmin": 1, "kmax": kmax, "ds": ds,
			})
			if resp.code != http.StatusCreated && resp.code != http.StatusOK {
				t.Errorf("creator %d: %d %s", c, resp.code, resp.raw)
				return
			}
			ids[c] = resp.body["session"].(string)
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("goroutine failures above")
	}
	for c := 2; c < creators; c++ {
		if ids[c] != ids[c%2] {
			t.Fatalf("identical creates diverged: %q vs %q", ids[c], ids[c%2])
		}
	}
	sessions := []string{ids[0], ids[1]}

	// Phase 1: readers mix solution and diff reads across both shared
	// sessions, racing the in-flight background precomputes (early reads
	// take the live path, later ones the store path).
	var liveReads, storeReads atomic.Int64
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < rounds; i++ {
				id := sessions[rng.Intn(len(sessions))]
				k := 1 + rng.Intn(kmax)
				d := ds[rng.Intn(len(ds))]
				switch i % 4 {
				case 0, 1: // solution
					resp := get(t, ts, fmt.Sprintf("/v1/sessions/%s/solution?k=%d&d=%d", id, k, d))
					if resp.code != http.StatusOK {
						t.Errorf("reader %d solution: %d %s", g, resp.code, resp.raw)
						return
					}
					switch resp.body["source"] {
					case "live":
						liveReads.Add(1)
					case "store":
						storeReads.Add(1)
					}
				case 2: // diff between two neighbouring slider positions
					k2 := k%kmax + 1
					resp := get(t, ts, fmt.Sprintf("/v1/sessions/%s/diff?k1=%d&d1=%d&k2=%d&d2=%d", id, k, d, k2, d))
					if resp.code != http.StatusOK {
						t.Errorf("reader %d diff: %d %s", g, resp.code, resp.raw)
						return
					}
				case 3: // metadata + metrics under load
					if resp := get(t, ts, "/v1/sessions/"+id); resp.code != http.StatusOK {
						t.Errorf("reader %d info: %d %s", g, resp.code, resp.raw)
						return
					}
					if resp := get(t, ts, "/metrics"); resp.code != http.StatusOK {
						t.Errorf("reader %d metrics: %d %s", g, resp.code, resp.raw)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("goroutine failures above")
	}

	// The two distinct (query, L, grid) tuples must have built exactly twice
	// despite 4 racing creators and 8 racing readers.
	entries, bytes := srv.sessions.occupancy()
	if builds := srv.sessions.events.builds.Load(); builds != 2 {
		t.Errorf("builds = %d, want 2 (singleflight dedupe)", builds)
	}
	if entries != 2 {
		t.Errorf("live sessions = %d, want 2", entries)
	}
	if bytes <= 0 {
		t.Errorf("cache bytes = %d, want > 0", bytes)
	}
	if total := liveReads.Load() + storeReads.Load(); total != int64(readers*rounds/2) {
		t.Errorf("solution reads = %d, want %d", total, readers*rounds/2)
	}
	t.Logf("solution reads: %d live, %d store; cache bytes %d",
		liveReads.Load(), storeReads.Load(), bytes)

	// Both sessions finish their builds; post-ready reads come from the
	// store and agree with what live reads reported.
	for _, id := range sessions {
		waitReady(t, ts, id)
		resp := get(t, ts, fmt.Sprintf("/v1/sessions/%s/solution?k=%d&d=1", id, kmax))
		if resp.code != http.StatusOK || resp.body["source"] != "store" {
			t.Errorf("post-ready read: %d %s", resp.code, resp.raw)
		}
	}
}

// TestConcurrentEvictionChurn drives session creates and reads through a
// 2-entry LRU so sessions are constantly evicted mid-build; reads must see
// clean 200s or 404s, never a torn state, and every evicted session's
// background sweep must get cancelled without leaking.
func TestConcurrentEvictionChurn(t *testing.T) {
	// Unlimited admission, as above: churn needs every worker in flight.
	srv, ts := testServer(t, Config{MaxSessions: 2, MaxInflightBuilds: -1})

	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 20; i++ {
				// 6 distinct session shapes over a 2-slot cache: constant
				// churn.
				l := 4 + rng.Intn(6)
				resp := post(t, ts, "/v1/sessions", map[string]any{
					"sql": testSQL, "l": l, "kmin": 1, "kmax": 4, "ds": []int{1, 2},
				})
				if resp.code != http.StatusCreated && resp.code != http.StatusOK {
					t.Errorf("worker %d create l=%d: %d %s", g, l, resp.code, resp.raw)
					return
				}
				id := resp.body["session"].(string)
				sol := get(t, ts, fmt.Sprintf("/v1/sessions/%s/solution?k=%d&d=1", id, 1+rng.Intn(4)))
				if sol.code != http.StatusOK && sol.code != http.StatusNotFound {
					t.Errorf("worker %d read: %d %s", g, sol.code, sol.raw)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("goroutine failures above")
	}
	entries, _ := srv.sessions.occupancy()
	if entries > 2 {
		t.Errorf("live sessions = %d, want <= 2", entries)
	}
	if srv.sessions.events.evictions.Load() == 0 {
		t.Error("expected evictions under churn")
	}
}
