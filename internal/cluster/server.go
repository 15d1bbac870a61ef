package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"dpbyz/internal/gar"
	"dpbyz/internal/membership"
	"dpbyz/internal/metrics"
	"dpbyz/internal/vecmath"
)

// DefaultRoundTimeout bounds how long the server waits for gradients each
// round before substituting zero vectors for the missing workers.
const DefaultRoundTimeout = 10 * time.Second

// submissionDepth is how many gradient buffers the server pre-allocates
// per worker connection. Depth 1 covers the lock-step pipeline of an
// honest worker; the extra slots absorb duplicated or reordered frames
// from faulty channels. When a peer floods faster than the server
// consumes, further frames are dropped (and counted), never buffered:
// a hostile worker cannot force unbounded allocation.
const submissionDepth = 3

// ServerConfig configures the parameter server.
type ServerConfig struct {
	// Addr is the listen address in the transport's format, e.g.
	// "127.0.0.1:0" for TCP.
	Addr string
	// Transport is the communication substrate (nil means TCP).
	Transport Transport
	// MaxFrameBytes caps the payload length a peer may declare (0 means
	// DefaultMaxFrameBytes). It must fit a Dim-sized gradient frame.
	MaxFrameBytes int
	// GAR is the aggregation rule of a fixed cohort; its N() is the number
	// of workers the server waits for before starting.
	GAR gar.GAR
	// Dim is the model dimension d.
	Dim int
	// Steps is the number of synchronous rounds.
	Steps int
	// LearningRate and Momentum define the Eq. 9 update.
	LearningRate float64
	Momentum     float64
	// InitParams optionally sets w_0 (defaults to the zero vector).
	InitParams []float64
	// RoundTimeout bounds each round — parameter broadcast plus gradient
	// collection share one wall-clock budget — and missing gradients become
	// zero vectors per §2.1 (default DefaultRoundTimeout).
	RoundTimeout time.Duration
	// Quorum, when positive and below N, enables bounded-staleness rounds:
	// the round commits as soon as Quorum submissions have arrived instead
	// of waiting the full timeout for all N (typically n − f − stragglers).
	// Workers that missed the cut are zero-padded and counted as missed;
	// their in-flight frames land one round late.
	Quorum int
	// LateCredit accepts a frame that is exactly one round stale into the
	// current round when the sender's slot is still empty — the
	// bounded-staleness (bound 1) crediting rule. Older frames and
	// duplicates are discarded either way.
	LateCredit bool
	// Membership, when set, lets the worker set change (see
	// MembershipConfig): it is re-derived at epoch boundaries, GAR is nil
	// (the per-epoch factory replaces it) and Quorum is derived per epoch
	// from the live view and the membership Stragglers budget. Only then
	// does the server accept join frames. Without it the same round loop
	// runs on a single epoch of exactly GAR.N() workers.
	Membership *MembershipConfig
	// Logf, when non-nil, receives progress lines (e.g. log.Printf).
	Logf func(format string, args ...any)

	// StartStep, when positive, resumes a previous run: the first broadcast
	// carries this step number and only Steps−StartStep rounds execute. Pair
	// it with InitParams (and InitVelocity) captured by a snapshot.
	StartStep int
	// InitVelocity optionally restores the server-side momentum buffer when
	// resuming (defaults to the zero vector).
	InitVelocity []float64
	// StepHook, when non-nil, is invoked after every completed round with
	// the round's metric record and a read-only view of the current
	// parameter vector (valid only during the call). A non-nil error aborts
	// the run.
	StepHook func(rec metrics.StepRecord, params []float64) error
	// SnapshotEvery, when positive together with SnapshotFunc, captures the
	// server's resumable state every k completed rounds (and after the final
	// round). Cluster snapshots carry only server-side state — parameters,
	// velocity, completed step count — because worker state lives in the
	// worker processes.
	SnapshotEvery int
	// SnapshotFunc receives each periodic snapshot; a non-nil error aborts
	// the run. The slices are the server's live buffers, valid only during
	// the call — implementations that persist them must copy.
	SnapshotFunc func(step int, params, velocity []float64) error
}

func (c *ServerConfig) validate() error {
	if c.Membership != nil {
		if c.GAR != nil {
			return errors.New("cluster: membership mode re-derives the GAR per epoch; set Membership.NewGAR, not GAR")
		}
		if c.Quorum != 0 {
			return errors.New("cluster: membership mode derives the quorum per epoch; set Membership.Stragglers, not Quorum")
		}
		if err := c.Membership.validate(); err != nil {
			return err
		}
	} else if c.GAR == nil {
		return errors.New("cluster: nil aggregation rule")
	}
	if c.Dim <= 0 {
		return fmt.Errorf("cluster: non-positive dim %d", c.Dim)
	}
	if c.Steps <= 0 {
		return fmt.Errorf("cluster: non-positive steps %d", c.Steps)
	}
	if c.LearningRate <= 0 {
		return fmt.Errorf("cluster: non-positive learning rate %v", c.LearningRate)
	}
	if c.Momentum < 0 || c.Momentum >= 1 {
		return fmt.Errorf("cluster: momentum %v outside [0, 1)", c.Momentum)
	}
	if c.InitParams != nil && len(c.InitParams) != c.Dim {
		return fmt.Errorf("cluster: init params dim %d, want %d", len(c.InitParams), c.Dim)
	}
	if c.InitVelocity != nil && len(c.InitVelocity) != c.Dim {
		return fmt.Errorf("cluster: init velocity dim %d, want %d", len(c.InitVelocity), c.Dim)
	}
	if c.StartStep < 0 || c.StartStep >= c.Steps {
		return fmt.Errorf("cluster: start step %d outside [0, %d)", c.StartStep, c.Steps)
	}
	if c.Membership == nil && (c.Quorum < 0 || c.Quorum > c.GAR.N()) {
		return fmt.Errorf("cluster: quorum %d outside [0, n=%d]", c.Quorum, c.GAR.N())
	}
	if err := validateMaxFrame(c.MaxFrameBytes, c.Dim); err != nil {
		return err
	}
	return nil
}

// validateMaxFrame rejects frame caps that cannot carry a dim-sized
// vector frame, or that overflow the header's uint32 length field.
func validateMaxFrame(maxFrame, dim int) error {
	if maxFrame < 0 {
		return fmt.Errorf("cluster: negative max frame bytes %d", maxFrame)
	}
	if maxFrame == 0 {
		maxFrame = DefaultMaxFrameBytes
	}
	if int64(maxFrame) > int64(math.MaxUint32) {
		return fmt.Errorf("cluster: max frame bytes %d exceeds the uint32 length field", maxFrame)
	}
	if need := 12 + 8*dim; need > maxFrame {
		return fmt.Errorf("cluster: max frame bytes %d cannot fit a dim-%d vector frame (%d bytes)",
			maxFrame, dim, need)
	}
	return nil
}

// ServerResult is the outcome of a full networked training run.
type ServerResult struct {
	// Params is the final parameter vector.
	Params []float64
	// History records the aggregate-gradient norm per round in the Loss
	// field (the server holds no data and cannot compute losses, matching
	// the paper's model).
	History *metrics.History
	// MissedGradients counts (worker, round) pairs that timed out and were
	// replaced by zero vectors. AcceptedGradients + MissedGradients equals
	// exactly N×(Steps−StartStep) for a completed run.
	MissedGradients int
	// AcceptedGradients counts submissions that entered aggregation.
	AcceptedGradients int
	// DiscardedSubmissions counts frames thrown away before aggregation:
	// stale or future steps, duplicates, spoofed worker ids, wrong
	// dimensions, or floods beyond the per-worker buffer depth.
	DiscardedSubmissions int
	// CreditedGradients counts accepted submissions that were one round
	// stale and credited under LateCredit (a subset of AcceptedGradients).
	CreditedGradients int
	// Epochs holds the per-epoch membership books. It is nil when
	// ServerConfig.Membership is nil: a fixed cohort's single epoch is the
	// run itself, already booked by the totals above. Over a completed run
	// Σ (Accepted_e + Missed_e) == Σ N_e × Rounds_e exactly;
	// membership.BalanceEpochs checks the identity.
	Epochs []membership.EpochStat
}

// Server drives synchronous distributed SGD over a Transport.
type Server struct {
	cfg ServerConfig
	// cohort is cfg.Membership, or fixedCohort's view of a fixed GAR.
	cohort   *MembershipConfig
	listener Listener
	logf     func(string, ...any)
}

// NewServer binds the listen endpoint so that Addr() is known before any
// worker starts. Call Run to begin training.
func NewServer(cfg ServerConfig) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = DefaultRoundTimeout
	}
	if cfg.Transport == nil {
		cfg.Transport = DefaultTransport
	}
	ln, err := cfg.Transport.Listen(cfg.Addr)
	if err != nil {
		return nil, err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	cohort := cfg.Membership
	if cohort == nil {
		cohort = fixedCohort(&cfg)
	}
	return &Server{cfg: cfg, cohort: cohort, listener: ln, logf: logf}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.listener.Addr() }

// Close releases the listen endpoint. Run closes it on return; Close is
// for aborting a server that never ran.
func (s *Server) Close() error { return s.listener.Close() }

// workerConn tracks one registered worker connection. free holds the
// pre-allocated gradient buffers the serve goroutine copies submissions
// into; the round loop hands buffers back after aggregation, so the
// steady state allocates no gradient-sized slices.
type workerConn struct {
	id   int
	c    *conn
	free chan []float64
	// joined records that the peer opened with a join frame: only such a
	// peer expects a welcome at admission and redials a broken link.
	joined bool
	// gone is set, under the registry lock, once the current connection's
	// serve goroutine has exited; a hello may then take the id over.
	gone bool
}

// submission is one gradient handed from a serve goroutine to the round
// loop. grad is a buffer from src's free list and must be returned there.
type submission struct {
	src  *workerConn
	step int
	grad []float64
}

// Run gathers the workers, executes the configured rounds and returns the
// final model. Fixed-cohort and membership servers drive this one loop: a
// fixed cohort is the single-epoch view of fixedCohort. Run always closes
// the listener and all connections, and waits for its connection
// goroutines, before returning. The context aborts both the gather phase and training
// between rounds.
//
// The run is partitioned into EpochRounds-round epochs. At each boundary
// the tracker advances the view — admitting handshaken workers (a peer
// that opened with a join gets a welcome frame carrying the first round it
// will serve plus the current params and velocity, so a rejoiner
// fast-forwards its deterministic streams and resumes bit-identically with
// the cohort), evicting crashed or silent ones — and the server
// re-materializes the GAR and commit quorum for the new population. Within
// an epoch the view is frozen, so every round's books have a well-defined
// n_e and the per-epoch ledger Accepted_e + Missed_e == n_e × rounds_e
// stays exact.
func (s *Server) Run(ctx context.Context) (*ServerResult, error) {
	defer s.listener.Close()
	mc := s.cohort
	tracker, err := membership.NewTracker(mc.trackerConfig())
	if err != nil {
		return nil, err
	}
	// The inbox holds one in-flight frame per worker plus one stale or
	// duplicated frame, so serve goroutines rarely wait on the round loop.
	reg := newMemberRegistry(tracker, 2*mc.MaxWorkers)
	acceptErr := make(chan error, 1)
	reg.wg.Add(1)
	go func() {
		defer reg.wg.Done()
		acceptErr <- s.accept(reg)
	}()
	// stop closes the listener, the only way to unblock Accept, before it
	// breaks the connections, so a membership worker cut off by the
	// teardown finds nothing to redial.
	stop := func() {
		s.listener.Close()
		reg.shutdown()
	}
	defer stop()

	w := make([]float64, s.cfg.Dim)
	if s.cfg.InitParams != nil {
		copy(w, s.cfg.InitParams)
	}
	velocity := make([]float64, s.cfg.Dim)
	if s.cfg.InitVelocity != nil {
		copy(velocity, s.cfg.InitVelocity)
	}
	history := &metrics.History{}
	missed, accepted, credited := 0, 0, 0
	var epochs []membership.EpochStat

	// Per-epoch state, rebuilt at each boundary.
	var (
		view      membership.View
		epochGAR  gar.GAR
		members   = make([]*workerConn, 0, mc.MaxWorkers) // slot-indexed; nil once a member's conn is replaced
		slotOf    = make([]int, mc.MaxWorkers)            // worker id → view slot, −1 outside the view
		target    int
		epochStat membership.EpochStat
	)
	closeEpoch := func() {
		if epochStat.Rounds > 0 {
			epochs = append(epochs, epochStat)
		}
	}
	// boundary advances the view once at least floor workers have
	// handshaken (errShort otherwise, with nothing changed).
	boundary := func(step, floor int) error {
		v, admitted, evicted, err := reg.advance(floor)
		if err != nil {
			return fmt.Errorf("cluster: round %d boundary: %w", step, err)
		}
		closeEpoch()
		for _, id := range evicted {
			s.logf("epoch %d: evicting worker %d", v.Epoch, id)
			reg.evict(id)
		}
		deadline := time.Now().Add(s.cfg.RoundTimeout)
		for _, id := range admitted {
			// A hello peer expects no welcome: its first frame is params.
			// A nil conn crashed between handshake and admission.
			wk := reg.current(id)
			if wk == nil || !wk.joined {
				continue
			}
			welcome := Welcome{Round: step, Epoch: v.Epoch, Weights: w, Velocity: velocity}
			if err := wk.c.sendWelcome(welcome, deadline); err != nil {
				s.logf("welcome to worker %d: %v", id, err)
				reg.disconnect(wk)
			}
		}
		epochGAR, err = mc.NewGAR(v.N(), v.F)
		if err != nil {
			return fmt.Errorf("cluster: epoch %d GAR (n=%d f=%d): %w", v.Epoch, v.N(), v.F, err)
		}
		view = v
		members = members[:0]
		for i := range slotOf {
			slotOf[i] = -1
		}
		for i, id := range v.Members {
			slotOf[id] = i
			members = append(members, reg.current(id))
		}
		target = v.N()
		if mc.Stragglers > 0 {
			target = v.Quorum(mc.Stragglers)
		}
		epochStat = membership.EpochStat{Epoch: v.Epoch, N: v.N(), F: v.F, View: v.Members}
		s.logf("epoch %d: n=%d f=%d quorum=%d members=%v", v.Epoch, v.N(), v.F, target, v.Members)
		return nil
	}

	submissions := make([][]float64, 0, mc.MaxWorkers)
	// agg is reused every round via the GAR's pooled AggregateInto path, and
	// zeros stands in for every missing submission (Aggregate never mutates
	// its inputs, so one shared zero vector is safe), so the steady-state
	// round loop allocates no gradient-sized slices.
	agg := make([]float64, s.cfg.Dim)
	zeros := make([]float64, s.cfg.Dim)
	timer := time.NewTimer(time.Hour)
	timer.Stop()

	finish := func() {
		deadline := time.Now().Add(s.cfg.RoundTimeout)
		for _, wk := range reg.all() {
			msg := Params{Step: s.cfg.Steps, Weights: w, Done: true}
			if err := wk.c.sendParams(msg, deadline); err != nil {
				s.logf("final broadcast to worker %d: %v", wk.id, err)
			}
		}
	}
	fail := func(err error) (*ServerResult, error) {
		finish()
		return nil, err
	}
	// abort tears a cancelled run down at `completed` committed rounds:
	// an interrupted run flushes a final snapshot of its completed prefix
	// (best-effort — the interruption is still the error), so a graceful
	// shutdown never loses resumable progress.
	abort := func(completed int) (*ServerResult, error) {
		finish()
		// A failed flush wraps the flush error, not the cancellation, so
		// callers that treat a clean interrupt as success still see a lost
		// snapshot as the failure it is.
		if s.cfg.SnapshotEvery > 0 && s.cfg.SnapshotFunc != nil {
			if serr := s.cfg.SnapshotFunc(completed, w, velocity); serr != nil {
				return nil, fmt.Errorf("cluster: round %d: %v (final snapshot: %w)", completed, ctx.Err(), serr)
			}
		}
		return nil, fmt.Errorf("cluster: round %d: %w", completed, ctx.Err())
	}

	// Gather phase: the run starts once MinWorkers have handshaken. The
	// first boundary re-checks the floor under the registry lock.
	for {
		for tracker.Population() < mc.MinWorkers {
			select {
			case <-reg.notify:
			case err := <-acceptErr:
				if ctx.Err() != nil {
					err = ctx.Err()
				}
				return nil, fmt.Errorf("cluster: gather: %w", err)
			case <-ctx.Done():
				return nil, fmt.Errorf("cluster: gather: %w", ctx.Err())
			}
		}
		err := boundary(s.cfg.StartStep, mc.MinWorkers)
		if err == nil {
			break
		}
		if !errors.Is(err, errShort) {
			return fail(err)
		}
	}

	for step := s.cfg.StartStep; step < s.cfg.Steps; step++ {
		if ctx.Err() != nil {
			return abort(step)
		}
		if step != s.cfg.StartStep && step%mc.EpochRounds == 0 {
			if err := boundary(step, 0); err != nil {
				return fail(err)
			}
		}

		// One deadline governs the whole round: the broadcast sends and the
		// collect timer both derive from it, so a slow broadcast eats into
		// the collection budget instead of stretching the round to ~2×
		// RoundTimeout.
		deadline := time.Now().Add(s.cfg.RoundTimeout)
		for i, wk := range members {
			// A member whose conn was replaced mid-epoch stays in the frozen
			// view as a mute: the new conn is only broadcast to once the
			// next boundary re-reads the view.
			if wk == nil || !reg.isCurrent(wk) {
				members[i] = nil
				continue
			}
			msg := Params{Step: step, Weights: w}
			if err := wk.c.sendParams(msg, deadline); err != nil {
				s.logf("broadcast to worker %d: %v (treating as mute)", wk.id, err)
			}
		}

		submissions = submissions[:view.N()]
		received := 0
		timer.Reset(time.Until(deadline))
	collect:
		for received < target {
			select {
			case sub := <-reg.inbox:
				i := slotOf[sub.src.id]
				switch {
				case i < 0 || !reg.isCurrent(sub.src):
					// Not in this epoch's view (evicted, pending, or a
					// stale conn the worker already replaced): discard.
					reg.discarded.Add(1)
					returnSubmission(sub.src, sub.grad)
				case sub.step == step && submissions[i] == nil:
					submissions[i] = sub.grad
					received++
				case s.cfg.LateCredit && sub.step == step-1 && submissions[i] == nil:
					// Bounded staleness 1: a frame computed against the
					// previous round's parameters still carries signal —
					// credit it to this round.
					submissions[i] = sub.grad
					received++
					credited++
				default:
					reg.discarded.Add(1)
					s.logf("discarding stale/duplicate gradient (worker %d, step %d)", sub.src.id, sub.step)
					returnSubmission(sub.src, sub.grad)
				}
			case <-timer.C:
				break collect
			case <-ctx.Done():
				// A cancelled round must not commit: no zero-padding, no
				// aggregation, no history record, no hooks. Return the
				// borrowed buffers and abort.
				timer.Stop()
				for i := range submissions {
					if submissions[i] != nil {
						returnSubmission(members[i], submissions[i])
						submissions[i] = nil
					}
				}
				return abort(step)
			}
		}
		timer.Stop()
		accepted += received
		epochStat.Accepted += received

		// Missing gradients become zero vectors (§2.1).
		for i, id := range view.Members {
			if submissions[i] == nil {
				submissions[i] = zeros
				missed++
				epochStat.Missed++
				tracker.RecordMiss(id)
			} else {
				tracker.RecordAccept(id)
			}
		}

		// Stateful kernels observe the round counter (see gar.RoundAware):
		// a round jump after a resume re-anchors their cross-round state.
		if ra, ok := epochGAR.(gar.RoundAware); ok {
			ra.BeginRound(step)
		}
		if err := gar.AggregateInto(epochGAR, agg, submissions); err != nil {
			return fail(fmt.Errorf("cluster: round %d aggregate: %w", step, err))
		}
		// Aggregation is done with the buffers: hand them back for reuse.
		for i := range submissions {
			if &submissions[i][0] != &zeros[0] {
				returnSubmission(members[i], submissions[i])
			}
			submissions[i] = nil
		}

		for i := range velocity {
			velocity[i] = s.cfg.Momentum*velocity[i] + agg[i]
			w[i] -= s.cfg.LearningRate * velocity[i]
		}
		if !vecmath.AllFinite(w) {
			return fail(fmt.Errorf("cluster: parameters diverged at round %d", step))
		}
		epochStat.Rounds++
		rec := metrics.StepRecord{
			Step:     step,
			Loss:     vecmath.Norm(agg), // server-side proxy: aggregate norm
			Accuracy: math.NaN(),
			VNRatio:  math.NaN(),
		}
		history.Append(rec)
		if s.cfg.StepHook != nil {
			if err := s.cfg.StepHook(rec, w); err != nil {
				return fail(fmt.Errorf("cluster: round %d hook: %w", step, err))
			}
		}
		if s.cfg.SnapshotEvery > 0 && s.cfg.SnapshotFunc != nil &&
			((step+1)%s.cfg.SnapshotEvery == 0 || step == s.cfg.Steps-1) {
			if err := s.cfg.SnapshotFunc(step+1, w, velocity); err != nil {
				return fail(fmt.Errorf("cluster: round %d snapshot: %w", step, err))
			}
		}
	}

	finish()
	// Quiesce the serve goroutines before snapshotting the counters: a frame racing
	// the end of the last round must still be counted, keeping the
	// accepted/discarded/missed accounting exact.
	stop()
	closeEpoch()
	res := &ServerResult{
		Params:               w,
		History:              history,
		MissedGradients:      missed,
		AcceptedGradients:    accepted,
		DiscardedSubmissions: int(reg.discarded.Load()),
		CreditedGradients:    credited,
	}
	if s.cfg.Membership != nil {
		res.Epochs = epochs
	}
	return res, nil
}

// accept handshakes each connection in turn for the whole run — a worker
// may handshake at any time and enters the view at the next boundary —
// hands every registered one to its own serve goroutine, and returns the
// listener's error once the listener closes. One opening frame is read at
// a time, bounded by RoundTimeout, so a flood of connectors holds at most
// one socket here and waits in the listener's backlog.
func (s *Server) accept(reg *memberRegistry) error {
	for {
		raw, err := s.listener.Accept()
		if err != nil {
			return err
		}
		c := newConnMax(raw, s.cfg.MaxFrameBytes)
		if !reg.enter(c) {
			_ = c.close()
			continue
		}
		id, joined, err := s.handshake(c)
		var w *workerConn
		if err == nil {
			w, err = reg.offer(id, joined, c, s.cfg.Dim)
		}
		if err != nil {
			s.logf("rejecting connection: %v", err)
			reg.leave(c, nil)
			continue
		}
		s.logf("worker %d handshaken", id)
		go s.serve(reg, c, w)
	}
}

// handshake reads a connection's opening frame. Any server takes a hello;
// a join (a membership worker announcing its stream position and asking
// for a welcome) needs a server configured with Membership.
func (s *Server) handshake(c *conn) (id int, joined bool, err error) {
	m, err := c.receive(time.Now().Add(s.cfg.RoundTimeout))
	switch {
	case err != nil:
		return 0, false, err
	case m.kind == msgHello:
		return m.hello.WorkerID, false, nil
	case m.kind == msgJoin && s.cfg.Membership != nil:
		return m.join.WorkerID, true, nil
	}
	return 0, false, fmt.Errorf("%w: opening frame type %d", ErrBadMessage, m.kind)
}

// serve fans a registered connection's gradient frames into the inbox: it
// validates the sender and dimension and copies the decoded gradient into
// one of the connection's own buffers. On exit it reports the disconnect
// and closes the conn.
func (s *Server) serve(reg *memberRegistry, c *conn, w *workerConn) {
	defer reg.leave(c, w)
	id := w.id
	for {
		m, err := c.receive(time.Time{})
		if err != nil {
			return
		}
		if m.kind != msgGradient {
			s.logf("worker %d sent non-gradient message", id)
			return
		}
		g := &m.gradient
		// A gradient claiming another worker's id is spoofed: the
		// connection authenticates the sender.
		if g.WorkerID != id || len(g.Grad) != s.cfg.Dim {
			reg.discarded.Add(1)
			s.logf("discarding bad gradient from worker %d (claimed %d, dim %d)",
				id, g.WorkerID, len(g.Grad))
			continue
		}
		var buf []float64
		select {
		case buf = <-w.free:
		default:
			// Buffer depth exhausted: the peer is sending faster than
			// rounds complete (duplication fault or flood).
			reg.discarded.Add(1)
			continue
		}
		copy(buf, g.Grad)
		select {
		case reg.inbox <- submission{src: w, step: g.Step, grad: buf}:
		case <-reg.done:
			return
		}
	}
}

// returnSubmission hands a borrowed gradient buffer back to its owner's
// free list. The owner may be nil when the member's conn was replaced
// mid-epoch after submitting; the buffer is simply dropped then (churn is
// off the steady state, so the allocation does not matter).
func returnSubmission(w *workerConn, buf []float64) {
	if w == nil {
		return
	}
	select {
	case w.free <- buf:
	default:
	}
}
