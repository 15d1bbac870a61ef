package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dpbyz/internal/gar"
	"dpbyz/internal/membership"
)

// MembershipConfig sets the epoched worker set the server's round loop
// runs on: the set is re-derived at epoch boundaries from live connections
// (see internal/membership). Workers may join mid-run (admitted at the
// next boundary), crash or fall silent (evicted at the boundary), and
// rejoin with a fast-forward welcome. A server configured without one runs
// the same loop on fixedCohort's single-epoch view.
type MembershipConfig struct {
	// MinWorkers is the population floor: the run starts once this many
	// workers have joined and aborts if a boundary would leave fewer.
	MinWorkers int
	// MaxWorkers caps the population and the worker-id range [0, MaxWorkers).
	MaxWorkers int
	// FRatio re-derives each epoch's Byzantine allowance f_e = ⌊FRatio·n_e⌋.
	FRatio float64
	// EpochRounds is the boundary spacing in rounds.
	EpochRounds int
	// EvictAfter evicts a member after this many consecutive missed rounds
	// (0 means membership.DefaultEvictAfter).
	EvictAfter int
	// Stragglers is the per-epoch bounded-staleness budget: each epoch's
	// commit quorum is n_e − f_e − Stragglers (0 = fully synchronous).
	// Pair with ServerConfig.LateCredit exactly as with a fixed Quorum.
	Stragglers int
	// NewGAR materializes the epoch's aggregation rule for a live view of
	// n workers with f Byzantine — the per-epoch re-materialization that
	// keeps the GAR's breakdown point matched to the actual population.
	NewGAR func(n, f int) (gar.GAR, error)
}

func (mc *MembershipConfig) validate() error {
	cfg := mc.trackerConfig()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if mc.Stragglers < 0 {
		return fmt.Errorf("cluster: negative membership stragglers %d", mc.Stragglers)
	}
	if mc.NewGAR == nil {
		return errors.New("cluster: membership mode needs a NewGAR factory")
	}
	return nil
}

func (mc *MembershipConfig) trackerConfig() membership.Config {
	return membership.Config{
		MinWorkers:  mc.MinWorkers,
		MaxWorkers:  mc.MaxWorkers,
		FRatio:      mc.FRatio,
		EpochRounds: mc.EpochRounds,
		EvictAfter:  mc.EvictAfter,
	}
}

// fixedCohort is the membership view of a server configured with a fixed
// GAR: exactly GAR.N() workers, one epoch whose only boundary is the start
// step (EpochRounds = Steps divides no later step), the configured rule as
// that epoch's GAR, and Quorum as the straggler budget — with FRatio 0 the
// view's quorum n − 0 − (n − Quorum) is Quorum itself. Eviction never
// fires because it only happens at a boundary.
func fixedCohort(cfg *ServerConfig) *MembershipConfig {
	g, n := cfg.GAR, cfg.GAR.N()
	mc := &MembershipConfig{
		MinWorkers:  n,
		MaxWorkers:  n,
		EpochRounds: cfg.Steps,
		NewGAR:      func(int, int) (gar.GAR, error) { return g, nil },
	}
	if cfg.Quorum > 0 && cfg.Quorum < n {
		mc.Stragglers = n - cfg.Quorum
	}
	return mc
}

// errShort reports a boundary attempted before the population reached the
// gather floor.
var errShort = errors.New("cluster: population below the gather floor")

// memberRegistry connects the accept loop, the per-connection serve
// goroutines and the round loop: it owns the id → current-connection map,
// feeds handshake and disconnect events into the membership tracker in
// arrival order, and carries the inbox and discard counter.
type memberRegistry struct {
	mu      sync.Mutex
	tracker *membership.Tracker
	cur     map[int]*workerConn
	// conns holds every connection being handshaken or served, so shutdown
	// can abort them all.
	conns map[*conn]struct{}
	// closed refuses new connections once shutdown has begun, so every
	// wg.Add happens before shutdown's wg.Wait.
	closed bool
	// notify wakes the gather phase when the population changes.
	notify chan struct{}

	inbox chan submission
	// done unblocks serve goroutines stuck on a full inbox during shutdown.
	done      chan struct{}
	wg        sync.WaitGroup
	discarded atomic.Int64
}

func newMemberRegistry(tr *membership.Tracker, inboxDepth int) *memberRegistry {
	return &memberRegistry{
		tracker: tr,
		cur:     make(map[int]*workerConn),
		conns:   make(map[*conn]struct{}),
		notify:  make(chan struct{}, 1),
		inbox:   make(chan submission, inboxDepth),
		done:    make(chan struct{}),
	}
}

// enter tracks a freshly accepted connection and counts it in wg until
// leave; it refuses the connection once shutdown has begun.
func (r *memberRegistry) enter(c *conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.conns[c] = struct{}{}
	r.wg.Add(1)
	return true
}

// leave stops tracking c: it reports the disconnect of w (nil when the
// handshake failed) and closes the conn.
func (r *memberRegistry) leave(c *conn, w *workerConn) {
	r.mu.Lock()
	delete(r.conns, c)
	r.mu.Unlock()
	if w != nil {
		r.disconnect(w)
	}
	_ = c.close()
	r.wg.Done()
}

// offer registers a handshaken connection for id. A join replaces a previous connection (newest wins — the common
// cause is the worker's own reconnect after a broken link; the stale conn
// is aborted). A hello never displaces a live connection: only membership
// workers redial, so a second hello for a connected id is an impostor or
// a misconfigured duplicate.
func (r *memberRegistry) offer(id int, joined bool, c *conn, dim int) (*workerConn, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.cur[id]
	if !joined && old != nil && !old.gone {
		return nil, fmt.Errorf("cluster: hello for worker %d, which is already connected", id)
	}
	if err := r.tracker.Handshake(id); err != nil {
		return nil, err
	}
	if old != nil {
		_ = old.c.abort()
	}
	free := make(chan []float64, submissionDepth)
	for i := 0; i < submissionDepth; i++ {
		free <- make([]float64, dim)
	}
	w := &workerConn{id: id, c: c, free: free, joined: joined}
	r.cur[id] = w
	select {
	case r.notify <- struct{}{}:
	default:
	}
	return w, nil
}

// disconnect reports a lost connection. Only the current connection demotes
// the member — a replaced conn dying later must not disconnect its rejoin.
func (r *memberRegistry) disconnect(w *workerConn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur[w.id] == w {
		w.gone = true
		r.tracker.Disconnect(w.id)
	}
}

// advance closes the epoch (membership.Tracker.AdvanceEpoch) once at least
// floor workers are live or pending, and fails with errShort otherwise.
// It holds the registry lock, so no handshake or disconnect lands between
// the population check and the view it derives.
func (r *memberRegistry) advance(floor int) (membership.View, []int, []int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tracker.Population() < floor {
		return membership.View{}, nil, nil, errShort
	}
	return r.tracker.AdvanceEpoch()
}

// current returns id's live connection, or nil.
func (r *memberRegistry) current(id int) *workerConn {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur[id]
}

// isCurrent reports whether w is still id's live connection.
func (r *memberRegistry) isCurrent(w *workerConn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur[w.id] == w
}

// evict drops id's connection (if any) so the worker's next frame fails
// and it re-enters through the join path — the self-stabilizing nudge.
func (r *memberRegistry) evict(id int) {
	r.mu.Lock()
	w := r.cur[id]
	delete(r.cur, id)
	r.mu.Unlock()
	if w != nil {
		_ = w.c.abort()
	}
}

// all snapshots the current connections (sorted iteration not needed: the
// callers' sends are independent per conn).
func (r *memberRegistry) all() []*workerConn {
	r.mu.Lock()
	defer r.mu.Unlock()
	conns := make([]*workerConn, 0, len(r.cur))
	for _, w := range r.cur {
		conns = append(conns, w)
	}
	return conns
}

// shutdown refuses further connections, unblocks every serve goroutine
// and waits for them and the accept loop. The caller closes the listener
// first, or the accept loop never returns. Later calls return at once.
func (r *memberRegistry) shutdown() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	conns := make([]*conn, 0, len(r.conns))
	for c := range r.conns {
		conns = append(conns, c)
	}
	r.mu.Unlock()
	close(r.done)
	for _, c := range conns {
		_ = c.abort()
	}
	r.wg.Wait()
}
