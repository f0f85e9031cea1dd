package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanName identifies the public call a span wraps.
type spanName uint8

const (
	spOp          spanName = iota // one workload op: the root of its trace
	spOpen                        // poseidon.Open
	spLoad                        // ldbc.Dataset.LoadCore
	spCreateIndex                 // poseidon.DB.CreateIndex, all workload indexes
	spPrepare                     // poseidon.DB.PreparePlan, plus server.New and client.Dial on wire-mix
	spWarm                        // the first run of every workload statement
	spQuery                       // poseidon.Session.Query
	spCollect                     // poseidon.Rows.Collect
	spBegin                       // poseidon.Session.Begin
	spQueryTx                     // poseidon.Session.QueryTx
	spCommit                      // core.Tx.Commit
	spQueryText                   // client.Conn.QueryText
	spExecText                    // client.Conn.ExecText
	spReopen                      // poseidon.Reopen
	spFsck                        // fsck.Check
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "poseidon.Open", "ldbc.LoadCore", "DB.CreateIndex", "DB.PreparePlan",
	"warm", "Session.Query", "Rows.Collect", "Session.Begin", "Session.QueryTx",
	"Tx.Commit", "Conn.QueryText", "Conn.ExecText", "poseidon.Reopen", "fsck.Check",
}

// span is one timed call. It holds no pointers, so the spans of a run
// add no marking work for the garbage collector.
type span struct {
	trace      uint64 // shared by the spans of one op or phase
	id, parent uint32 // parent 0 marks a root
	name       spanName
	start, end int64 // ns since clock origin
}

func (s span) dur() int64 { return s.end - s.start }

// origin is the clock every span is measured against.
var origin = time.Now()

// now returns monotonic nanoseconds since origin.
func now() int64 { return int64(time.Since(origin)) }

// spanLog holds one goroutine's spans in memory until the run ends.
type spanLog struct{ spans []span }

// add records a span; on a nil log (an untraced run) it does nothing.
func (l *spanLog) add(trace uint64, id, parent uint32, name spanName, start, end int64) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{trace: trace, id: id, parent: parent, name: name, start: start, end: end})
}

// spanStats summarizes the op traces of a run.
type spanStats struct {
	durs map[spanName][]int64 // child durations by call
	self []int64              // per op: root duration minus its children
}

// summarize groups child spans by name and computes each op root's self
// time. The benchmark's child spans are sequential calls, so the part
// of the root they cover is the sum of their durations.
func summarize(spans []span) spanStats {
	st := spanStats{durs: make(map[spanName][]int64)}
	roots := make(map[uint64]int) // trace -> index into st.self
	for _, s := range spans {
		if s.name == spOp && s.parent == 0 {
			roots[s.trace] = len(st.self)
			st.self = append(st.self, s.dur())
		}
	}
	for _, s := range spans {
		if s.parent == 0 {
			continue
		}
		st.durs[s.name] = append(st.durs[s.name], s.dur())
		if i, ok := roots[s.trace]; ok {
			st.self[i] -= s.dur()
		}
	}
	return st
}

// writeSpans writes spans as JSON lines to path, creating its directory.
func writeSpans(path string, logs ...[]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, l := range logs {
		for _, s := range l {
			fmt.Fprintf(w, `{"trace":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				s.trace, s.id, s.parent, spanNames[s.name], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
