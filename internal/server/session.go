package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qagview"
	"qagview/internal/faultinject"
	"qagview/internal/obs"
)

// session is one live exploration context: a (query, L, grid) spine plus a
// chain of per-generation views. The spine fields are immutable; the current
// view is published through an atomic pointer, so reads never lock, and
// refreshes (live tables changed under the session) swap in a successor view
// whose cluster space Live.Refresh rebuilt over the re-run query.
type session struct {
	ID         string
	SQL        string
	Table      string   // first FROM relation, kept for display
	Tables     []string // every FROM relation; their summed generation drives staleness
	L          int
	KMin, KMax int
	Ds         []int

	// live owns the current index and the warm sweeper chain. It is
	// single-writer: only the refresh critical section (refreshMu, entered
	// through the manager's singleflight) and the one in-flight store build
	// between a view's creation and its ready-close may touch it.
	live      *qagview.Live
	refreshMu sync.Mutex
	dead      atomic.Bool

	view atomic.Pointer[sessionView]

	created time.Time
}

// sessionView is one data generation's immutable serving state: the
// summarizer snapshot, the data version it reflects, and the store build it
// serves from. Views whose data is byte-identical (a no-op refresh: an
// append the query filters out) share one storeBuild, so the sweep —
// finished or still running — carries across version bumps untouched.
type sessionView struct {
	sum         *qagview.Summarizer
	dataVersion uint64
	dataFP      string
	build       *storeBuild
}

// storeBuild is one background (k, D) sweep. Result fields are written
// exactly once, before ready closes; readers that find ready open fall back
// to live summarization, so no read ever blocks on a build.
type storeBuild struct {
	ready        chan struct{}
	store        *qagview.Store
	buildErr     error
	fromSnapshot bool

	cancel context.CancelFunc
}

func newStoreBuild(cancel context.CancelFunc) *storeBuild {
	return &storeBuild{ready: make(chan struct{}), cancel: cancel}
}

// storeIfReady returns the precomputed store without blocking: (nil, nil,
// false) while the background build is still running.
func (v *sessionView) storeIfReady() (*qagview.Store, error, bool) {
	select {
	case <-v.build.ready:
		return v.build.store, v.build.buildErr, true
	default:
		return nil, nil, false
	}
}

// currentView returns the session's live view.
func (s *session) currentView() *sessionView { return s.view.Load() }

// shutdown cancels the session's background work (eviction, explicit
// delete). A refresh racing shutdown re-checks dead after swapping and
// cancels its own view, so no build outlives the session.
func (s *session) shutdown() {
	s.dead.Store(true)
	if v := s.view.Load(); v != nil {
		v.build.cancel()
	}
}

// sessionKey derives the dedupe key of a session request: identical
// (query, L, grid) tuples map to the same session.
func sessionKey(sql string, l, kMin, kMax int, ds []int) string {
	sorted := append([]int(nil), ds...)
	sort.Ints(sorted)
	var sb strings.Builder
	sb.WriteString(sql)
	fmt.Fprintf(&sb, "|L=%d|k=[%d,%d]|ds=", l, kMin, kMax)
	for _, d := range sorted {
		sb.WriteString(strconv.Itoa(d))
		sb.WriteByte(',')
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

// resultFingerprint hashes the ranked answer set (attributes, rows, exact
// value bits) a session view is built from.
func resultFingerprint(res *qagview.Result) string {
	h := sha256.New()
	for _, a := range res.GroupBy {
		h.Write([]byte(a))
		h.Write([]byte{0})
	}
	for i, row := range res.Rows {
		for _, cell := range row {
			h.Write([]byte(cell))
			h.Write([]byte{0})
		}
		var bits [8]byte
		binary.LittleEndian.PutUint64(bits[:], math.Float64bits(res.Vals[i]))
		h.Write(bits[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// managerStats counts session-manager events for /metrics.
type managerStats struct {
	Builds        int64 `json:"builds"`
	BuildErrors   int64 `json:"build_errors"`
	Deduped       int64 `json:"deduped"`
	Evictions     int64 `json:"evictions"`
	Deletes       int64 `json:"deletes"`
	Refreshes     int64 `json:"refreshes"`
	RefreshNoops  int64 `json:"refresh_noops"`
	RefreshErrors int64 `json:"refresh_errors"`
	SnapshotLoads int64 `json:"snapshot_loads"`
	SnapshotSaves int64 `json:"snapshot_saves"`
	// SnapshotSaveErrors counts store snapshots that could not be written
	// (each is also logged at Warn); the session keeps serving from memory.
	SnapshotSaveErrors int64 `json:"snapshot_save_errors"`
}

// sessionManager owns the LRU of live sessions. Summarizer construction and
// session refreshes are deduplicated through a singleflight group; precompute
// stores build in one background goroutine per view, cancelled on eviction or
// supersession via the context threaded into Precompute.
type sessionManager struct {
	mu    sync.Mutex
	cache *lruCache // session id -> *session
	stats managerStats

	flight flightGroup

	// dur is the server's data directory; store snapshots persist there
	// through the durable writer. Set by Server.New; nil without a WAL
	// directory, in which case nothing is written.
	dur *durability

	// tracer roots background-build traces (builds have no request trace to
	// attach to). Set by Server.New; nil in bare-manager tests, where every
	// obs call is a nil-safe no-op.
	tracer *obs.Tracer

	// logger receives warnings about background work no request waits on
	// (snapshot save failures). Set by Server.New; slog.Default otherwise.
	logger *slog.Logger

	// wg tracks background store-build goroutines so close can wait for
	// them after cancelling: graceful shutdown must not exit while a sweep
	// still touches a session's Live.
	wg sync.WaitGroup

	// removing marks an explicit DELETE in progress (under mu), so the
	// eviction hook can tell cache-pressure evictions from user deletes and
	// keep the evictions gauge meaningful for LRU sizing.
	removing bool
}

func newSessionManager(maxSessions int, maxBytes int64) *sessionManager {
	m := &sessionManager{logger: slog.Default()}
	m.cache = newLRUCache(maxSessions, maxBytes, func(_ string, v any) {
		// Runs under m.mu (all cache mutations do). Cancelling an in-flight
		// build makes Precompute return ctx.Err() at its next per-D check.
		if !m.removing {
			m.stats.Evictions++
		}
		v.(*session).shutdown()
	})
	return m
}

// get returns the live session with the given id, refreshing its LRU slot.
func (m *sessionManager) get(id string) (*session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.cache.Get(id)
	if !ok {
		return nil, false
	}
	return v.(*session), true
}

// remove drops the session (explicit DELETE), cancelling its background
// work through the eviction hook.
func (m *sessionManager) remove(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.cache.Get(id); !ok {
		return false
	}
	m.stats.Deletes++
	m.removing = true
	m.cache.Remove(id)
	m.removing = false
	return true
}

// open returns the live session for (sql, L, grid), building it if needed.
// Concurrent identical requests share one build; reused reports whether the
// caller got a session someone else created (live cache hit or singleflight
// duplicate).
func (m *sessionManager) open(ctx context.Context, db *db, sql string, l, kMin, kMax int, ds []int) (sess *session, reused bool, err error) {
	key := sessionKey(sql, l, kMin, kMax, ds)
	id := "s-" + key[:16]
	if s, ok := m.get(id); ok {
		return s, true, nil
	}
	v, err, shared := m.flight.Do(key, func() (any, error) {
		// A duplicate that lost the fast-path race may still find the
		// session built by the previous flight owner.
		if s, ok := m.get(id); ok {
			return s, nil
		}
		return m.build(ctx, db, id, sql, l, kMin, kMax, ds)
	})
	if err != nil {
		return nil, false, err
	}
	if shared {
		m.mu.Lock()
		m.stats.Deduped++
		m.mu.Unlock()
	}
	return v.(*session), shared, nil
}

// build runs the expensive synchronous part of session creation (query +
// cluster-space construction), registers the session, and kicks off the
// background store build. Callers hold the singleflight slot for key, so at
// most one build per key runs at a time.
// The ctx bounds only the synchronous query (the caller's request deadline;
// duplicate singleflight callers share the first caller's fate); the
// background sweep runs under its own cancel-on-eviction context.
func (m *sessionManager) build(ctx context.Context, db *db, id, sql string, l, kMin, kMax int, ds []int) (*session, error) {
	// Read the table generation before running the query: if an append races
	// in between, the view is labeled older than the data it may contain and
	// the first read triggers a refresh that diffs to a no-op — never the
	// other way around (stale data labeled fresh).
	res, gen, err := db.queryVersioned(ctx, sql)
	if err != nil {
		return nil, err
	}
	if res.N() == 0 {
		return nil, fmt.Errorf("query returned no groups")
	}
	if l > res.N() {
		return nil, fmt.Errorf("l = %d exceeds the %d result groups", l, res.N())
	}
	sum, err := qagview.NewSummarizerCtx(ctx, res, l)
	if err != nil {
		return nil, err
	}
	// Validate the (k, D) grid now, while the client is still listening:
	// these would otherwise surface only as a background build error.
	seen := make(map[int]bool, len(ds))
	for _, d := range ds {
		if d < 0 || d > sum.M() {
			return nil, fmt.Errorf("d = %d out of range [0, %d]", d, sum.M())
		}
		if seen[d] {
			return nil, fmt.Errorf("duplicate D = %d", d)
		}
		seen[d] = true
	}
	buildCtx, cancel := context.WithCancel(context.Background())
	s := &session{
		ID: id, SQL: sql, Table: res.Table,
		Tables: append([]string(nil), res.Tables...),
		L:      l, KMin: kMin, KMax: kMax,
		Ds:      append([]int(nil), ds...),
		live:    qagview.NewLive(sum),
		created: time.Now(),
	}
	sort.Ints(s.Ds)
	v := &sessionView{
		sum:         sum,
		dataVersion: gen,
		dataFP:      resultFingerprint(res),
		build:       newStoreBuild(cancel),
	}
	s.view.Store(v)
	m.mu.Lock()
	m.stats.Builds++
	m.cache.Add(id, s, sum.ApproxBytes())
	m.mu.Unlock()
	m.wg.Add(1)
	go m.buildStore(buildCtx, s, v)
	return s, nil
}

// freshen returns the session's current view, first reconciling it with the
// table's data generation: the first read of a stale session re-runs the
// query, supersedes any in-flight sweep (cancel + wait), rebuilds the
// cluster space through Live.Refresh, and kicks off the successor store
// build. Concurrent stale reads share one refresh
// through the singleflight group.
func (m *sessionManager) freshen(ctx context.Context, db *db, s *session) (*sessionView, error) {
	cur := s.currentView()
	if s.dead.Load() || cur.dataVersion >= db.generationSum(s.Tables) {
		return cur, nil
	}
	v, err, _ := m.flight.Do("refresh|"+s.ID, func() (any, error) {
		s.refreshMu.Lock()
		defer s.refreshMu.Unlock()
		cur := s.currentView()
		want := db.generationSum(s.Tables)
		if s.dead.Load() || cur.dataVersion >= want {
			return cur, nil // raced with another refresh or a delete
		}
		// Refreshes run uncancelled: the result is shared by every concurrent
		// stale reader through the singleflight group, so one caller's
		// deadline must not fail the others' reads. WithoutCancel keeps the
		// flight owner's trace span (a context value) while dropping its
		// deadline — losers' reads were never traced into this refresh.
		rctx, rsp := obs.StartSpan(context.WithoutCancel(ctx), "session.refresh")
		defer rsp.End()
		rsp.SetAttr("session", s.ID)
		res, err := db.query(rctx, s.SQL)
		if err != nil {
			m.countRefresh(&m.stats.RefreshErrors)
			return nil, fmt.Errorf("refresh query: %w", err)
		}
		if res.N() < s.L {
			m.countRefresh(&m.stats.RefreshErrors)
			return nil, fmt.Errorf("refreshed result has %d groups, below the session's l = %d", res.N(), s.L)
		}
		fp := resultFingerprint(res)
		if fp == cur.dataFP {
			// The answer set is byte-identical (e.g. the append fell below
			// the query's HAVING threshold): bump the version label, sharing
			// the current store build — finished or still sweeping — without
			// cancelling anything.
			nv := &sessionView{sum: cur.sum, dataVersion: want, dataFP: fp, build: cur.build}
			s.view.Store(nv)
			m.countRefresh(&m.stats.RefreshNoops)
			return nv, nil
		}
		// Supersede the current generation's sweep: cancel it and wait for
		// the build goroutine to let go of the Live (it is
		// single-writer; ready closes when the build returns).
		cur.build.cancel()
		//qag:allow lockscope deliberate: refreshMu serializes refreshes per session, and the superseded build was just cancelled, so ready closes promptly; waiting here is what guarantees Live's single-writer contract
		<-cur.build.ready
		if _, _, err := s.live.RefreshCtx(rctx, res); err != nil {
			m.countRefresh(&m.stats.RefreshErrors)
			return nil, fmt.Errorf("refresh: %w", err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		nv := &sessionView{
			sum:         s.live.Summarizer(),
			dataVersion: want,
			dataFP:      fp,
			build:       newStoreBuild(cancel),
		}
		s.view.Store(nv)
		if s.dead.Load() {
			cancel() // lost a race with eviction; don't leak the build
		}
		m.mu.Lock()
		m.stats.Refreshes++
		m.cache.Resize(s.ID, nv.sum.ApproxBytes())
		m.mu.Unlock()
		m.wg.Add(1)
		go m.buildStore(ctx, s, nv)
		return nv, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*sessionView), nil
}

func (m *sessionManager) countRefresh(counter *int64) {
	m.mu.Lock()
	*counter++
	m.mu.Unlock()
}

// buildStore materializes a view's precompute store in the background
// (fillStore), then — with ready already closed, so reads switch to the
// store while the file is fsynced — snapshots a freshly swept store for the
// next restart. The goroutine stays in m.wg until the save returns, so close
// and Drain wait for it.
func (m *sessionManager) buildStore(ctx context.Context, s *session, v *sessionView) {
	defer m.wg.Done()
	// Background builds run on a cancel-on-eviction context with no request
	// attached, so they root their own trace (recorded only while the global
	// gate is on; nil otherwise).
	ctx, btr := m.tracer.StartTrace(ctx, "session.build_store", false)
	if btr != nil {
		btr.Root.SetAttr("session", s.ID)
		btr.Root.SetInt("data_version", int64(v.dataVersion))
		defer m.tracer.Finish(btr)
	}
	if st, swept := m.fillStore(ctx, s, v); swept {
		m.saveSnapshot(s, v, st)
	}
}

// fillStore sets the view's store — from a snapshot when one exists for
// this session and data fingerprint (warm restart, no sweep), otherwise by
// running the cancellable sweep through the warm sweeper chain, so a
// refreshed session reuses the previous generation's replay state — and
// closes ready. swept reports a store this process computed.
func (m *sessionManager) fillStore(ctx context.Context, s *session, v *sessionView) (st *qagview.Store, swept bool) {
	defer close(v.build.ready)
	// A panic here would kill the whole process (background goroutine), so
	// degrade to a build error: the session keeps serving via the live path.
	defer func() {
		if r := recover(); r != nil {
			v.build.buildErr = fmt.Errorf("store build panicked: %v", r)
			st, swept = nil, false
			m.mu.Lock()
			m.stats.BuildErrors++
			m.mu.Unlock()
		}
	}()
	if st, ok := m.loadSnapshot(s, v); ok {
		v.build.store, v.build.fromSnapshot = st, true
		m.resize(s, v)
		return st, false
	}
	st, err := s.live.Precompute(s.KMin, s.KMax, s.Ds,
		qagview.WithPrecomputeContext(ctx),
		qagview.WithStoreGeneration(v.dataVersion))
	if err != nil {
		v.build.buildErr = err
		if !errors.Is(err, context.Canceled) {
			// Cancellation is routine eviction/supersession cleanup (already
			// counted), not a failure signal.
			m.mu.Lock()
			m.stats.BuildErrors++
			m.mu.Unlock()
		}
		return nil, false
	}
	v.build.store = st
	m.resize(s, v)
	return st, true
}

// resize re-accounts the session's cache cost once its store exists.
func (m *sessionManager) resize(s *session, v *sessionView) {
	m.mu.Lock()
	m.cache.Resize(s.ID, v.sum.ApproxBytes()+v.build.store.SizeBytes())
	m.mu.Unlock()
}

// loadSnapshot decodes the session's store snapshot for the view's answer
// set, if one exists. Generation counters restart with the process, table
// contents do not, so the fingerprint in the file name is the whole key.
func (m *sessionManager) loadSnapshot(s *session, v *sessionView) (*qagview.Store, bool) {
	if m.dur == nil {
		return nil, false
	}
	f, err := os.Open(m.dur.storePath(s.ID, v.dataFP))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	st, err := v.sum.DecodeStore(f)
	if err != nil || st.KMin != s.KMin || st.KMax != s.KMax || !slices.Equal(st.Ds, s.Ds) {
		// Undecodable or foreign snapshot: fall back to a fresh sweep, whose
		// save overwrites it.
		return nil, false
	}
	m.mu.Lock()
	m.stats.SnapshotLoads++
	m.mu.Unlock()
	return st, true
}

// saveSnapshot persists a swept store through the durable writer when the
// server has a data directory, then deletes the session's superseded store
// files; without this, a session over a table under routine appends would
// grow one file per refresh forever. A failed write is counted
// (snapshot_save_errors) and logged at Warn; the session keeps serving from
// memory and the next build tries again.
func (m *sessionManager) saveSnapshot(s *session, v *sessionView, st *qagview.Store) {
	if m.dur == nil {
		return
	}
	path := m.dur.storePath(s.ID, v.dataFP)
	err := writeSnapshotFile(path, faultinject.CrashStoreRenameBefore, faultinject.CrashStoreRenameAfter, st.Encode)
	m.mu.Lock()
	if err != nil {
		m.stats.SnapshotSaveErrors++
	} else {
		m.stats.SnapshotSaves++
	}
	m.mu.Unlock()
	if err != nil {
		m.logger.Warn("session snapshot save failed; the session keeps serving from memory",
			"session", s.ID, "error", err)
		return
	}
	// Open readers on unix keep their fd across the unlink, so a concurrent
	// load racing the delete still decodes cleanly (or misses and re-sweeps).
	old, _ := filepath.Glob(filepath.Join(filepath.Dir(path), s.ID+"-*.store"))
	for _, f := range old {
		if f != path {
			_ = os.Remove(f)
		}
	}
}

// occupancy reports the cache gauges for /metrics.
func (m *sessionManager) occupancy() (entries int, bytes int64, stats managerStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cache.Len(), m.cache.Bytes(), m.stats
}

// close cancels every live session's background work and waits for the
// build goroutines to return. Safe to call more than once.
func (m *sessionManager) close() {
	m.mu.Lock()
	for m.cache.Len() > 0 {
		m.cache.removeElement(m.cache.ll.Back())
	}
	m.mu.Unlock()
	// Outside the lock: cancelled builds may still need m.mu to count their
	// cancellation before they return.
	m.wg.Wait()
}
