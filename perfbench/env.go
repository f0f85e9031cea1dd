package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"poseidon"
	"poseidon/client"
	"poseidon/internal/core"
	"poseidon/internal/index"
	"poseidon/internal/ldbc"
	"poseidon/internal/query"
	"poseidon/internal/server"
	"poseidon/internal/wire"
)

// kind selects a workload's op and the statements it prepares.
type kind int

const (
	srPoint kind = iota
	iuWrite
	wireMix
	srScan
)

type workloadSpec struct {
	name    string
	kind    kind
	persons int
	clients int
}

var workloads = []workloadSpec{
	{"sr-point", srPoint, 1000, 1},
	{"iu-write", iuWrite, 1000, 2},
	{"wire-mix", wireMix, 1000, 2},
	{"sr-scan", srScan, 300, 1},
}

// engineConfig is the configuration poseidond serves with by default:
// PMem, a 512 MiB pool, shards and workers = GOMAXPROCS, telemetry on,
// tracing off, group commit and index deltas off.
func engineConfig() poseidon.Config {
	return poseidon.Config{
		Mode:      poseidon.PMem,
		PoolSize:  512 << 20,
		Telemetry: poseidon.TelemetryConfig{Enabled: true},
	}
}

// Session settings of a poseidond connection: the server-default
// adaptive mode, its statement deadline and transaction bound.
const (
	stmtTimeout   = 30 * time.Second
	sessionMaxTxs = 8
	maxRetries    = 20 // MVTO conflict retries before an op counts as failed
	srWirePercent = 80 // wire-mix share of SR ops, as in poseidon-load
)

func readSession(db *poseidon.DB) *poseidon.Session {
	return db.NewSession(poseidon.SessionConfig{Mode: poseidon.Adaptive, Timeout: stmtTimeout, MaxTxs: sessionMaxTxs})
}

// writeSession runs IU statements under Interpret, the mode Session.Exec
// forces for updates.
func writeSession(db *poseidon.DB) *poseidon.Session {
	return db.NewSession(poseidon.SessionConfig{Mode: poseidon.Interpret, Timeout: stmtTimeout, MaxTxs: sessionMaxTxs})
}

var (
	srQueries = ldbc.SRQueries()
	iuQueries = ldbc.IUQueries()
)

// env is one set-up engine with the workload's statements prepared and,
// on wire-mix, a loopback server with one connection per client.
type env struct {
	spec  workloadSpec
	ds    *ldbc.Dataset
	db    *poseidon.DB
	sr    []*poseidon.Stmt // indexed plans, or label-scan plans on sr-scan
	iu    []*poseidon.Stmt
	srv   *server.Server
	done  chan error // Serve's result
	conns []*client.Conn
}

// setupTimes splits one set-up into the public calls it makes.
type setupTimes struct {
	open, load, index, prepare, warm time.Duration
}

func (t setupTimes) total() time.Duration {
	return t.open + t.load + t.index + t.prepare + t.warm
}

// setUp opens an engine, loads ds, builds the workload indexes, prepares
// the workload's statements and runs each once. The warm-up inserts are
// acknowledged and recorded in acked.
func setUp(spec workloadSpec, ds *ldbc.Dataset, seed int64, log *spanLog, trace uint64, acked *ackSet) (*env, setupTimes, error) {
	var t setupTimes
	e := &env{spec: spec, ds: ds}
	mark := now()
	step := func(name spanName, d *time.Duration) {
		end := now()
		*d = time.Duration(end - mark)
		log.add(trace, uint32(name), 0, name, mark, end)
		mark = end
	}
	db, err := poseidon.Open(engineConfig())
	if err != nil {
		return nil, t, fmt.Errorf("open: %w", err)
	}
	e.db = db
	step(spOpen, &t.open)
	if err := ds.LoadCore(db.Engine(), false, index.Hybrid); err != nil {
		e.close()
		return nil, t, fmt.Errorf("load: %w", err)
	}
	step(spLoad, &t.load)
	for _, ix := range ldbc.IndexSpecs() {
		if err := db.CreateIndex(ix[0], ix[1], poseidon.HybridIndex); err != nil {
			e.close()
			return nil, t, fmt.Errorf("create index %s.%s: %w", ix[0], ix[1], err)
		}
	}
	step(spCreateIndex, &t.index)
	if err := e.prepare(); err != nil {
		e.close()
		return nil, t, err
	}
	step(spPrepare, &t.prepare)
	if err := e.warm(seed, acked); err != nil {
		e.close()
		return nil, t, fmt.Errorf("warm: %w", err)
	}
	step(spWarm, &t.warm)
	return e, t, nil
}

func (e *env) prepare() error {
	if e.spec.kind != iuWrite {
		for _, q := range srQueries {
			plan, err := ldbc.SRPlan(q, e.spec.kind != srScan)
			if err != nil {
				return err
			}
			st, err := e.db.PreparePlan(plan)
			if err != nil {
				return fmt.Errorf("prepare sr%s: %w", q.Name(), err)
			}
			e.sr = append(e.sr, st)
		}
	}
	if e.spec.kind == iuWrite || e.spec.kind == wireMix {
		for _, q := range iuQueries {
			plan, err := ldbc.IUPlan(q, true)
			if err != nil {
				return err
			}
			st, err := e.db.PreparePlan(plan)
			if err != nil {
				return fmt.Errorf("prepare iu%s: %w", q.Name(), err)
			}
			e.iu = append(e.iu, st)
		}
	}
	if e.spec.kind != wireMix {
		return nil
	}
	// poseidond's defaults, on a loopback listener.
	srv, err := server.New(server.Config{DB: e.db, Mode: poseidon.Adaptive})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.srv, e.done = srv, make(chan error, 1)
	go func() { e.done <- srv.Serve(l) }()
	for i := 0; i < e.spec.clients; i++ {
		c, err := client.Dial(l.Addr().String(), client.Options{UserAgent: "perfbench"})
		if err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		e.conns = append(e.conns, c)
	}
	return nil
}

// warm runs every workload statement once, through the path the
// workload uses, so JIT compilation and cache fills land in set-up.
func (e *env) warm(seed int64, acked *ackSet) error {
	w := newWorker(e, 0, seed)
	defer w.close()
	for i := range e.sr {
		var err error
		if e.spec.kind == wireMix {
			_, _, err = w.wireSR(i, false)
		} else {
			_, _, err = w.sr(i, false)
		}
		if err != nil {
			return err
		}
	}
	for i := range e.iu {
		var err error
		if e.spec.kind == wireMix {
			_, _, err = w.wireIU(i, false)
		} else {
			_, _, err = w.iu(i, false)
		}
		if err != nil {
			return err
		}
	}
	acked.merge(&w.acked)
	return nil
}

// close shuts the server down and releases the engine.
func (e *env) close() {
	e.stopServer()
	if e.db != nil {
		e.db.Close()
	}
}

func (e *env) stopServer() {
	for _, c := range e.conns {
		c.Close()
	}
	e.conns = nil
	if e.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // a drain that runs out of time still closes every connection
	<-e.done
	e.srv = nil
}

// Fresh-entity labels whose acknowledged inserts the checks look up.
var ackLabels = [4]string{"Person", "Forum", "Post", "Comment"}

// ackSet holds the business ids of acknowledged IU1/4/6/7 inserts.
type ackSet [4][]int64

func (a *ackSet) merge(o *ackSet) {
	for i := range a {
		a[i] = append(a[i], o[i]...)
	}
}

func (a *ackSet) count() int {
	n := 0
	for _, ids := range a {
		n += len(ids)
	}
	return n
}

// record notes the fresh id an acknowledged IU op inserted.
func (a *ackSet) record(q ldbc.QueryID, p query.Params) {
	switch q.Num {
	case 1:
		a[0] = append(a[0], p["personId"].(int64))
	case 4:
		a[1] = append(a[1], p["forumId"].(int64))
	case 6:
		a[2] = append(a[2], p["postId"].(int64))
	case 7:
		a[3] = append(a[3], p["commentId"].(int64))
	}
}

// worker is one closed-loop client: it waits for each reply before it
// sends the next op.
type worker struct {
	e     *env
	id    int
	rng   *rand.Rand
	pg    *ldbc.ParamGen
	rsess *poseidon.Session
	conn  *client.Conn

	acked   ackSet
	retries int
	log     spanLog
	seq     uint64
}

// newWorker draws parameters from a generator seeded by seed and id;
// its fresh-entity ids live in block id, apart from every other worker.
func newWorker(e *env, id int, seed int64) *worker {
	pg := ldbc.NewParamGen(e.ds, seed*1000+int64(id))
	pg.Partition(id)
	w := &worker{
		e: e, id: id, pg: pg,
		rng:   rand.New(rand.NewSource(seed*1000 + int64(id) + 500)),
		rsess: readSession(e.db),
	}
	if e.spec.kind == wireMix {
		w.conn = e.conns[id%len(e.conns)]
	}
	return w
}

func (w *worker) close() { w.rsess.Close() }

// op class, for per-class latency on wire-mix.
const (
	classSR = iota
	classIU
)

// op runs one workload op and returns its latency in ns. The latency
// covers the calls into the program, not parameter generation.
func (w *worker) op(traced bool) (int64, int, error) {
	switch w.e.spec.kind {
	case iuWrite:
		return w.iu(w.rng.Intn(len(w.e.iu)), traced)
	case wireMix:
		if w.rng.Intn(100) < srWirePercent {
			return w.wireSR(w.rng.Intn(len(w.e.sr)), traced)
		}
		return w.wireIU(w.rng.Intn(len(w.e.iu)), traced)
	default:
		return w.sr(w.rng.Intn(len(w.e.sr)), traced)
	}
}

// traceID returns a run-unique id for the worker's next traced op.
func (w *worker) traceID() uint64 {
	w.seq++
	return uint64(w.id+1)<<40 | w.seq
}

// run makes attempts at one op until one succeeds, retrying MVTO
// conflicts with the same parameters after a backoff. attempt records
// the spans of its calls through span; run records the op's root span
// and returns the op's latency in ns.
func (w *worker) run(traced bool, class int, q ldbc.QueryID, prefix string,
	attempt func(span func(name spanName, start, end int64)) error) (int64, int, error) {
	var t uint64
	if traced {
		t = w.traceID()
	}
	id := uint32(1)
	span := func(name spanName, s, e int64) {
		if traced {
			id++
			w.log.add(t, id, 1, name, s, e)
		}
	}
	start := now()
	for n := 0; ; n++ {
		err := attempt(span)
		if err == nil {
			break
		}
		if !isConflict(err) || n == maxRetries {
			return 0, class, fmt.Errorf("%s%s: %w", prefix, q.Name(), err)
		}
		w.retries++
		backoff(n)
	}
	end := now()
	if traced {
		w.log.add(t, 1, 0, spOp, start, end)
	}
	return end - start, class, nil
}

// sr runs SR statement i: Session.Query, then Rows.Collect. A read that
// meets a write lock aborts under MVTO and is retried.
func (w *worker) sr(i int, traced bool) (int64, int, error) {
	params := w.pg.SRParams(srQueries[i])
	return w.run(traced, classSR, srQueries[i], "sr", func(span func(spanName, int64, int64)) error {
		s := now()
		rows, err := w.rsess.Query(context.Background(), w.e.sr[i], params)
		mid := now()
		span(spQuery, s, mid)
		if err != nil {
			return err
		}
		_, err = rows.Collect()
		span(spCollect, mid, now())
		return err
	})
}

// iu runs IU statement i: Session.Begin, Session.QueryTx with
// Rows.Collect, and Tx.Commit.
func (w *worker) iu(i int, traced bool) (int64, int, error) {
	q := iuQueries[i]
	params := w.pg.IUParams(q)
	lat, class, err := w.run(traced, classIU, q, "iu", func(span func(spanName, int64, int64)) error {
		return w.iuOnce(w.e.iu[i], params, span)
	})
	if err == nil {
		w.acked.record(q, params)
	}
	return lat, class, err
}

// iuOnce makes one attempt in a session of its own, as the API suggests
// for a unit of work: a session keeps counting a transaction from
// Session.Begin against MaxTxs after it commits.
func (w *worker) iuOnce(st *poseidon.Stmt, params query.Params, span func(spanName, int64, int64)) error {
	sess := writeSession(w.e.db)
	defer sess.Close()
	t0 := now()
	tx, err := sess.Begin()
	t1 := now()
	span(spBegin, t0, t1)
	if err != nil {
		return err
	}
	rows, err := sess.QueryTx(context.Background(), tx, st, params)
	t2 := now()
	span(spQueryTx, t1, t2)
	if err == nil {
		_, err = rows.Collect()
		span(spCollect, t2, now())
	}
	if err != nil {
		_ = tx.Abort() // the conflict may already have ended the transaction
		return err
	}
	t3 := now()
	err = tx.Commit()
	span(spCommit, t3, now())
	return err
}

// backoff waits before retry attempt+1, doubling from 10us up to about
// 1ms so the transaction holding the lock can finish.
func backoff(attempt int) {
	time.Sleep(10 * time.Microsecond << min(attempt, 7))
}

// isConflict reports an MVTO write-lock conflict, in-process or over
// the wire: the op is retried with the same parameters.
func isConflict(err error) bool {
	if r, ok := core.ReasonOf(err); ok {
		return r == core.AbortWriteConflict || r == core.AbortValidation
	}
	return client.IsCode(err, wire.CodeConflict)
}

// Statement texts the wire workload sends, as poseidon-load does.
var srTexts, iuTexts = texts("ldbc:sr", srQueries), texts("ldbc:iu", iuQueries)

func texts(prefix string, qs []ldbc.QueryID) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = prefix + q.Name()
	}
	return out
}

// wireSR runs SR statement i by text with Conn.QueryText.
func (w *worker) wireSR(i int, traced bool) (int64, int, error) {
	params := w.pg.SRParams(srQueries[i])
	return w.run(traced, classSR, srQueries[i], "wire sr", func(span func(spanName, int64, int64)) error {
		s := now()
		_, err := w.conn.QueryText(srTexts[i], params)
		span(spQueryText, s, now())
		return err
	})
}

// wireIU runs IU statement i by text with Conn.ExecText: the server
// commits before it acknowledges.
func (w *worker) wireIU(i int, traced bool) (int64, int, error) {
	q := iuQueries[i]
	params := w.pg.IUParams(q)
	lat, class, err := w.run(traced, classIU, q, "wire iu", func(span func(spanName, int64, int64)) error {
		s := now()
		_, err := w.conn.ExecText(iuTexts[i], params)
		span(spExecText, s, now())
		return err
	})
	if err == nil {
		w.acked.record(q, params)
	}
	return lat, class, err
}

// isProtocolError reports a transport or framing failure, as opposed to
// an ERROR frame the server sent on purpose.
func isProtocolError(err error) bool {
	var se *client.ServerError
	if errors.As(err, &se) {
		return se.Code == wire.CodeProtocol
	}
	return true
}
