package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/mobilegrid/adf/internal/broker"
	"github.com/mobilegrid/adf/internal/estimate"
	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/hla"
	"github.com/mobilegrid/adf/internal/wire"
)

// The RTI replay is the paper's architecture with a real TCP hop: one
// sender federate publishes each round's transmitted LUs as "LU"
// interactions (cmd/adffed's node/x/y layout) through an in-process
// hla.Server on loopback to one receiver federate, which feeds a grid
// broker. Both federates are time-regulating and time-constrained; the
// sender requests a time advance after every round. It is a closed
// loop: each SendInteraction waits for its acknowledgement.

const (
	luClass      = "LU"
	fedName      = "perfbench"
	syncLabel    = "start"
	fedLookahead = 1.0
	// ioTimeout bounds every frame read and write, so a lost peer fails
	// the run instead of hanging it.
	ioTimeout    = 10 * time.Second
	maxSyncTicks = 10000
)

// luRec is one LU on the RTI path, as sent or as delivered.
type luRec struct {
	T    float64
	Node int
	X, Y float64
}

func newLUValues() hla.Values {
	return hla.Values{"node": make([]byte, 8), "x": make([]byte, 8), "y": make([]byte, 8)}
}

// putLU packs (node, x, y) into v's reused buffers.
func putLU(v hla.Values, node int, x, y float64) {
	binary.BigEndian.PutUint64(v["node"], uint64(node))
	binary.BigEndian.PutUint64(v["x"], math.Float64bits(x))
	binary.BigEndian.PutUint64(v["y"], math.Float64bits(y))
}

func decodeLU(v hla.Values) (node int, x, y float64, ok bool) {
	n, xb, yb := v["node"], v["x"], v["y"]
	if len(v) != 3 || len(n) != 8 || len(xb) != 8 || len(yb) != 8 {
		return 0, 0, 0, false
	}
	return int(binary.BigEndian.Uint64(n)), math.Float64frombits(binary.BigEndian.Uint64(xb)),
		math.Float64frombits(binary.BigEndian.Uint64(yb)), true
}

// msgInteraction is the message-type byte of an interaction request. The
// value is private to the hla package; any byte costs the same to
// encode and decode.
const msgInteraction = 0

// encodeInteraction builds the payload hla.Client.SendInteraction writes
// for an LU interaction.
func encodeInteraction(e *wire.Encoder, t float64, v hla.Values) {
	e.PutByte(msgInteraction)
	e.PutString(luClass)
	e.PutFloat64(t)
	e.PutValues(v)
}

// luFrameBytes is the size of the frame SendInteraction writes for one
// LU: the 4-byte length word and the payload.
func luFrameBytes() int {
	var e wire.Encoder
	encodeInteraction(&e, 1, newLUValues())
	return 4 + len(e.Bytes())
}

func newLEBroker(idSpan int) *broker.Broker {
	le := estimate.DefaultGapAwareConfig()
	le.HeadingAlpha = estimate.DefaultSmoothing
	b := broker.New(func() estimate.PositionEstimator {
		e, _ := estimate.NewGapAwareLE(le) // the default configuration is valid
		return e
	})
	b.Preallocate(idSpan)
	return b
}

// fedAmb tracks synchronization for either federate.
type fedAmb struct {
	synced bool
}

func (*fedAmb) DiscoverObjectInstance(hla.ObjectHandle, string, string)      {}
func (*fedAmb) ReflectAttributeValues(hla.ObjectHandle, hla.Values, float64) {}
func (*fedAmb) ReceiveInteraction(string, hla.Values, float64)               {}
func (*fedAmb) RemoveObjectInstance(hla.ObjectHandle)                        {}
func (*fedAmb) TimeAdvanceGrant(float64)                                     {}
func (*fedAmb) AnnounceSynchronizationPoint(string, []byte)                  {}
func (a *fedAmb) FederationSynchronized(string)                              { a.synced = true }

// recvAmb is the receiver federate: it decodes each delivered LU, feeds
// the broker and keeps the round's deliveries for verification. Only
// the goroutine driving the receiver touches it.
type recvAmb struct {
	fedAmb
	brk *broker.Broker
	got []luRec
	bad int64
	tr  *tracer
	seq int64
	// fault, set only by tests, alters or drops a delivery before it is
	// recorded; it reports whether to keep the LU.
	fault func(seq int64, r *luRec) bool
}

func (a *recvAmb) ReceiveInteraction(class string, p hla.Values, t float64) {
	s := nanotime()
	seq := a.seq
	a.seq++
	node, x, y, ok := decodeLU(p)
	if class != luClass || !ok {
		a.bad++
		return
	}
	r := luRec{T: t, Node: node, X: x, Y: y}
	if a.fault != nil && !a.fault(seq, &r) {
		return
	}
	a.brk.ReceiveLU(r.Node, r.T, geo.Point{X: r.X, Y: r.Y})
	a.got = append(a.got, r)
	if a.tr != nil {
		a.tr.addLU(lRecv, seq, s, nanotime())
	}
}

type federation struct {
	srv     *hla.Server
	served  chan error
	send    *hla.Client
	recv    *hla.Client
	sendAmb *fedAmb
	recvAmb *recvAmb
	vals    hla.Values
	// step is the last granted logical time; sent counts LUs sent.
	step int
	sent int64
}

// startFederation starts an RTI server on loopback, joins the receiver
// and the sender, and lines both up at a synchronization point.
func startFederation(brk *broker.Broker) (f *federation, err error) {
	rti := hla.NewRTI()
	if err := rti.CreateFederation(fedName); err != nil {
		return nil, err
	}
	srv, err := hla.NewServer(rti, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f = &federation{
		srv: srv, served: make(chan error, 1),
		sendAmb: &fedAmb{}, recvAmb: &recvAmb{brk: brk}, vals: newLUValues(),
	}
	go func() { f.served <- srv.Serve() }()
	defer func() {
		if err != nil {
			_ = f.close()
			f = nil
		}
	}()
	addr := srv.Addr().String()
	if f.recv, err = dial(addr); err != nil {
		return f, err
	}
	if err = f.recv.Join(fedName, "recv", fedLookahead, f.recvAmb); err != nil {
		return f, err
	}
	if err = f.recv.SubscribeInteractionClass(luClass); err != nil {
		return f, err
	}
	if f.send, err = dial(addr); err != nil {
		return f, err
	}
	if err = f.send.Join(fedName, "send", fedLookahead, f.sendAmb); err != nil {
		return f, err
	}
	if err = f.send.PublishInteractionClass(luClass); err != nil {
		return f, err
	}
	if err = f.send.RegisterSynchronizationPoint(syncLabel, nil); err != nil {
		return f, err
	}
	if err = f.send.SynchronizationPointAchieved(syncLabel); err != nil {
		return f, err
	}
	if err = f.recv.SynchronizationPointAchieved(syncLabel); err != nil {
		return f, err
	}
	for i := 0; !f.sendAmb.synced || !f.recvAmb.synced; i++ {
		if i == maxSyncTicks {
			return f, errors.New("federation did not synchronize")
		}
		if !f.sendAmb.synced {
			if err = f.send.Tick(); err != nil {
				return f, err
			}
		}
		if !f.recvAmb.synced {
			if err = f.recv.Tick(); err != nil {
				return f, err
			}
		}
	}
	return f, nil
}

func dial(addr string) (*hla.Client, error) {
	c, err := hla.Dial(addr)
	if err != nil {
		return nil, err
	}
	c.SetIOTimeouts(ioTimeout, ioTimeout)
	return c, nil
}

// close resigns both federates, closes their connections and stops the
// server, waiting for it to finish.
func (f *federation) close() error {
	var errs []error
	for _, c := range []*hla.Client{f.send, f.recv} {
		if c == nil {
			continue
		}
		if err := c.Resign(); err != nil {
			errs = append(errs, err)
		}
		if err := c.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := f.srv.Shutdown(); err != nil {
		errs = append(errs, err)
	}
	<-f.served // Serve reports the closed listener; nothing to act on
	return errors.Join(errs...)
}

type stepBatch struct {
	t      float64
	lus    []luRec
	traced bool
}

// phaseStats covers the rounds of one phase. A phase starts and ends
// with both federates idle, so its I/O and allocation deltas hold
// exactly its own rounds.
type phaseStats struct {
	sent      int64
	delivered int64
	// mismatched counts LUs missing, extra, altered or out of
	// timestamp order at the receiver.
	mismatched int64
	bad        int64
	io         procIO
	mallocs    uint64
}

// phase sends one round per step: the step's LUs one SendInteraction at
// a time, then a time advance request; a receiver goroutine advances in
// lockstep and checks every delivery against what was sent. With traced
// set, spans land in trS and trR.
func (f *federation) phase(steps [][]luRec, traced bool, trS, trR *tracer, am *allocMeter) (phaseStats, error) {
	var ps phaseStats
	// One step in flight: the sender cannot be granted its next time
	// before the receiver has requested the current one.
	batches := make(chan stepBatch, 1)
	var (
		wg      sync.WaitGroup
		recvErr error
		rs      phaseStats
	)
	io0, err := readProcIO()
	if err != nil {
		return ps, err
	}
	m0 := am.mallocs()
	wg.Add(1)
	go func() {
		defer wg.Done()
		recvErr = f.receive(batches, &rs, trR)
	}()

	var sendErr error
	for _, round := range steps {
		step := f.step + 1
		t := float64(step) * samplePeriod
		r0 := nanotime()
		// The receiver compares against its own copy, stamped with the
		// round's time.
		lus := append([]luRec(nil), round...)
		for i := range lus {
			lus[i].T = t
			putLU(f.vals, lus[i].Node, lus[i].X, lus[i].Y)
			s := nanotime()
			err := f.send.SendInteraction(luClass, f.vals, t)
			e := nanotime()
			if err != nil {
				sendErr = fmt.Errorf("send: %w", err)
				lus = lus[:i]
				break
			}
			if traced {
				trS.addLU(lSend, f.sent, s, e)
			}
			f.sent++
			ps.sent++
		}
		batches <- stepBatch{t: t, lus: lus, traced: traced}
		if sendErr != nil {
			break
		}
		a := nanotime()
		if err := f.send.TimeAdvanceRequest(t); err != nil {
			sendErr = fmt.Errorf("advance: %w", err)
			break
		}
		b := nanotime()
		f.step = step
		if traced {
			trS.add(lSenderTAR, a, b)
			trS.add(lRound, r0, b)
			trS.endRound()
		}
	}
	close(batches)
	wg.Wait()
	io1, err := readProcIO()
	if err != nil {
		return ps, err
	}
	ps.io = procIO{wchar: io1.wchar - io0.wchar, syscw: io1.syscw - io0.syscw}
	ps.mallocs = am.mallocs() - m0
	ps.delivered, ps.mismatched, ps.bad = rs.delivered, rs.mismatched, rs.bad
	return ps, errors.Join(sendErr, recvErr)
}

// receive is the receiver federate's loop: advance to each sent round's
// time, then compare what was delivered with what was sent.
func (f *federation) receive(batches <-chan stepBatch, rs *phaseStats, tr *tracer) error {
	a := f.recvAmb
	bad0 := a.bad
	lastT := math.Inf(-1)
	for b := range batches {
		a.got = a.got[:0]
		a.tr = nil
		if b.traced {
			a.tr = tr
		}
		s := nanotime()
		err := f.recv.TimeAdvanceRequest(b.t)
		e := nanotime()
		if err != nil {
			// Drop the connection so the sender's grant is not held back
			// by a receiver that will never advance again.
			_ = f.recv.Close()
			for range batches {
			}
			return fmt.Errorf("receiver advance: %w", err)
		}
		if b.traced {
			tr.add(lRecvTAR, s, e)
			tr.endRound()
		}
		rs.delivered += int64(len(a.got))
		n := min(len(a.got), len(b.lus))
		rs.mismatched += int64(len(a.got) + len(b.lus) - 2*n)
		for i := 0; i < n; i++ {
			g, w := a.got[i], b.lus[i]
			if g.T < lastT || g.T != w.T || g.Node != w.Node ||
				math.Float64bits(g.X) != math.Float64bits(w.X) || math.Float64bits(g.Y) != math.Float64bits(w.Y) {
				rs.mismatched++
				continue
			}
			lastT = g.T
		}
	}
	rs.bad = a.bad - bad0
	return nil
}
