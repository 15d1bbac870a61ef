package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"dpbyz/internal/attack"
	"dpbyz/internal/cluster"
	"dpbyz/internal/data"
	"dpbyz/internal/dp"
	"dpbyz/internal/gar"
	"dpbyz/internal/model"
	"dpbyz/internal/randx"
)

// The decorators below time calls into each layer's public interface and
// forward everything else. The program type-asserts optional interfaces
// on these values (model.BatchGradienter, model.Predictor,
// gar.IntoAggregator, gar.RoundAware, attack.GARAware,
// attack.AdaptiveAttack), so each wrap function returns a type that has
// exactly the optional methods the wrapped value has: dropping one would
// silently switch the program to a slower path, adding one would make it
// call a method the wrapped value lacks.

// tracedModel times Gradient, ClippedBatchGradient and Loss, and counts
// Predict calls without timing them (one call per test point is too fine
// to time without distorting it).
type tracedModel struct {
	inner model.Model
	lane  *Lane
}

func (m *tracedModel) Name() string  { return m.inner.Name() }
func (m *tracedModel) Dim() int      { return m.inner.Dim() }
func (m *tracedModel) Features() int { return m.inner.Features() }

func (m *tracedModel) Loss(w []float64, batch []data.Point) float64 {
	i := m.lane.begin(kLoss)
	v := m.inner.Loss(w, batch)
	m.lane.end(i, 0)
	return v
}

func (m *tracedModel) Gradient(dst, w []float64, batch []data.Point) []float64 {
	i := m.lane.begin(kGradient)
	v := m.inner.Gradient(dst, w, batch)
	m.lane.end(i, 0)
	return v
}

func (m *tracedModel) clippedBatch(dst, buf, w []float64, batch []data.Point, xSq []float64, clip float64) []float64 {
	i := m.lane.begin(kGradient)
	v := m.inner.(model.BatchGradienter).ClippedBatchGradient(dst, buf, w, batch, xSq, clip)
	m.lane.end(i, 0)
	return v
}

func (m *tracedModel) predict(w, x []float64) float64 {
	m.lane.rec.predicts.Add(1)
	return m.inner.(model.Predictor).Predict(w, x)
}

type tracedModelBG struct{ *tracedModel }

func (m tracedModelBG) ClippedBatchGradient(dst, buf, w []float64, batch []data.Point, xSq []float64, clip float64) []float64 {
	return m.clippedBatch(dst, buf, w, batch, xSq, clip)
}

type tracedModelPred struct{ *tracedModel }

func (m tracedModelPred) Predict(w, x []float64) float64 { return m.predict(w, x) }

type tracedModelBGPred struct{ *tracedModel }

func (m tracedModelBGPred) ClippedBatchGradient(dst, buf, w []float64, batch []data.Point, xSq []float64, clip float64) []float64 {
	return m.clippedBatch(dst, buf, w, batch, xSq, clip)
}
func (m tracedModelBGPred) Predict(w, x []float64) float64 { return m.predict(w, x) }

func wrapModel(m model.Model, lane *Lane) model.Model {
	t := &tracedModel{inner: m, lane: lane}
	_, bg := m.(model.BatchGradienter)
	_, pr := m.(model.Predictor)
	switch {
	case bg && pr:
		return tracedModelBGPred{t}
	case bg:
		return tracedModelBG{t}
	case pr:
		return tracedModelPred{t}
	}
	return t
}

// tracedMech times the noise draws of a DP mechanism.
type tracedMech struct {
	inner dp.Mechanism
	lane  *Lane
}

func (d *tracedMech) Name() string                   { return d.inner.Name() }
func (d *tracedMech) Sigma() float64                 { return d.inner.Sigma() }
func (d *tracedMech) PerCoordinateVariance() float64 { return d.inner.PerCoordinateVariance() }

func (d *tracedMech) Perturb(v []float64, rng *randx.Stream) []float64 {
	i := d.lane.begin(kNoise)
	out := d.inner.Perturb(v, rng)
	d.lane.end(i, 0)
	return out
}

func (d *tracedMech) PerturbInto(dst, v []float64, rng *randx.Stream) []float64 {
	i := d.lane.begin(kNoise)
	out := d.inner.PerturbInto(dst, v, rng)
	d.lane.end(i, 0)
	return out
}

func wrapMech(m dp.Mechanism, lane *Lane) dp.Mechanism {
	if m == nil {
		return nil
	}
	return &tracedMech{inner: m, lane: lane}
}

// tracedAttack times Craft. A GAR-aware attack's line search calls the
// rule it was armed with; armed with a traced rule on the same lane, those
// calls nest as gar spans under the attack.craft span.
type tracedAttack struct {
	inner attack.Attack
	lane  *Lane
}

func (a *tracedAttack) Name() string { return a.inner.Name() }

func (a *tracedAttack) Craft(honest [][]float64, rng *randx.Stream) ([]float64, error) {
	i := a.lane.begin(kCraft)
	v, err := a.inner.Craft(honest, rng)
	a.lane.end(i, 0)
	return v, err
}

func (a *tracedAttack) setGAR(g gar.GAR) { a.inner.(attack.GARAware).SetGAR(g) }

func (a *tracedAttack) observe(round int, agg []float64, honest [][]float64) {
	a.inner.(attack.AdaptiveAttack).Observe(round, agg, honest)
}

type tracedAttackGA struct{ *tracedAttack }

func (a tracedAttackGA) SetGAR(g gar.GAR) { a.setGAR(g) }

type tracedAttackAd struct{ *tracedAttack }

func (a tracedAttackAd) Observe(round int, agg []float64, honest [][]float64) {
	a.observe(round, agg, honest)
}
func (a tracedAttackAd) State() attack.State { return a.inner.(attack.AdaptiveAttack).State() }
func (a tracedAttackAd) SetState(s attack.State) error {
	return a.inner.(attack.AdaptiveAttack).SetState(s)
}

type tracedAttackGAAd struct{ *tracedAttack }

func (a tracedAttackGAAd) SetGAR(g gar.GAR) { a.setGAR(g) }
func (a tracedAttackGAAd) Observe(round int, agg []float64, honest [][]float64) {
	a.observe(round, agg, honest)
}
func (a tracedAttackGAAd) State() attack.State { return a.inner.(attack.AdaptiveAttack).State() }
func (a tracedAttackGAAd) SetState(s attack.State) error {
	return a.inner.(attack.AdaptiveAttack).SetState(s)
}

func wrapAttack(a attack.Attack, lane *Lane) attack.Attack {
	if a == nil {
		return nil
	}
	t := &tracedAttack{inner: a, lane: lane}
	_, ga := a.(attack.GARAware)
	_, ad := a.(attack.AdaptiveAttack)
	switch {
	case ga && ad:
		return tracedAttackGAAd{t}
	case ga:
		return tracedAttackGA{t}
	case ad:
		return tracedAttackAd{t}
	}
	return t
}

// tracedGAR times Aggregate and AggregateInto.
type tracedGAR struct {
	inner gar.GAR
	lane  *Lane
}

func (g *tracedGAR) Name() string { return g.inner.Name() }
func (g *tracedGAR) N() int       { return g.inner.N() }
func (g *tracedGAR) F() int       { return g.inner.F() }
func (g *tracedGAR) KF() float64  { return g.inner.KF() }

func (g *tracedGAR) Aggregate(grads [][]float64) ([]float64, error) {
	i := g.lane.begin(kAggregate)
	v, err := g.inner.Aggregate(grads)
	g.lane.end(i, 0)
	return v, err
}

func (g *tracedGAR) into(dst []float64, grads [][]float64) error {
	i := g.lane.begin(kAggregate)
	err := g.inner.(gar.IntoAggregator).AggregateInto(dst, grads)
	g.lane.end(i, 0)
	return err
}

func (g *tracedGAR) beginRound(r int) { g.inner.(gar.RoundAware).BeginRound(r) }

type tracedGARInto struct{ *tracedGAR }

func (g tracedGARInto) AggregateInto(dst []float64, grads [][]float64) error {
	return g.into(dst, grads)
}

type tracedGARRound struct{ *tracedGAR }

func (g tracedGARRound) BeginRound(r int) { g.beginRound(r) }

type tracedGARIntoRound struct{ *tracedGAR }

func (g tracedGARIntoRound) AggregateInto(dst []float64, grads [][]float64) error {
	return g.into(dst, grads)
}
func (g tracedGARIntoRound) BeginRound(r int) { g.beginRound(r) }

func wrapGAR(g gar.GAR, lane *Lane) gar.GAR {
	t := &tracedGAR{inner: g, lane: lane}
	_, into := g.(gar.IntoAggregator)
	_, ra := g.(gar.RoundAware)
	switch {
	case into && ra:
		return tracedGARIntoRound{t}
	case into:
		return tracedGARInto{t}
	case ra:
		return tracedGARRound{t}
	}
	return t
}

// tracedTransport decorates a cluster transport. Connections it dials
// record on the dialer's lane; connections a listener accepts record
// writes on the server lane (the round loop writes every broadcast) and
// reads on a lane of their own (each has its own reader goroutine).
type tracedTransport struct {
	inner cluster.Transport
	rec   *Recorder
	lane  *Lane
}

func (t *tracedTransport) Listen(addr string) (cluster.Listener, error) {
	ln, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tracedListener{inner: ln, rec: t.rec, wr: t.lane}, nil
}

func (t *tracedTransport) Dial(ctx context.Context, addr string) (cluster.Conn, error) {
	c, err := t.inner.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &tracedConn{inner: c, rd: t.lane, wr: t.lane}, nil
}

// forLane returns the same transport recording dials on lane.
func (t *tracedTransport) forLane(lane *Lane) *tracedTransport {
	return &tracedTransport{inner: t.inner, rec: t.rec, lane: lane}
}

type tracedListener struct {
	inner    cluster.Listener
	rec      *Recorder
	wr       *Lane
	accepted int
}

func (l *tracedListener) Accept() (cluster.Conn, error) {
	c, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	l.accepted++
	rd := l.rec.NewLane(fmt.Sprintf("server-conn-%d", l.accepted))
	return &tracedConn{inner: c, rd: rd, wr: l.wr}, nil
}

func (l *tracedListener) Addr() string { return l.inner.Addr() }
func (l *tracedListener) Close() error { return l.inner.Close() }

// frameHeader is the wire protocol's frame header length; bytes 4..7 hold
// the payload length, little-endian.
const frameHeader = 8

// tracedConn times each frame Write, and each Read of a frame payload. The
// header Read that precedes a payload blocks until the peer sends, so it
// measures waiting, not transport work, and is not recorded.
type tracedConn struct {
	inner  cluster.Conn
	rd, wr *Lane
	hdr    [frameHeader]byte
	hn     int
	left   int
}

func (c *tracedConn) Read(p []byte) (int, error) {
	if c.left == 0 {
		n, err := c.inner.Read(p)
		for _, b := range p[:n] {
			if c.hn < frameHeader {
				c.hdr[c.hn] = b
				c.hn++
			}
		}
		if c.hn == frameHeader {
			c.left = int(binary.LittleEndian.Uint32(c.hdr[4:8]))
			c.hn = 0
		}
		return n, err
	}
	i := c.rd.begin(kRead)
	n, err := c.inner.Read(p)
	c.rd.end(i, n)
	c.left -= n
	if err != nil {
		c.left = 0
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	i := c.wr.begin(kWrite)
	n, err := c.inner.Write(p)
	c.wr.end(i, len(p))
	return n, err
}

func (c *tracedConn) Close() error { return c.inner.Close() }

func (c *tracedConn) SetReadDeadline(t time.Time) error  { return c.inner.SetReadDeadline(t) }
func (c *tracedConn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }
