package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"poseidon"
	"poseidon/internal/fsck"
	"poseidon/internal/ldbc"
	"poseidon/internal/query"
)

// checkSR runs one seeded parameter set per SR variant through the
// indexed and the label-scan plan, each under Interpret and under the
// workload's adaptive mode, and requires all four results to match. On
// wire-mix it also requires the rows a connection returns for the same
// parameters to match.
func checkSR(e *env, seed int64) error {
	rs, is := readSession(e.db), writeSession(e.db)
	defer rs.Close()
	defer is.Close()
	pg := ldbc.NewParamGen(e.ds, seed*1000+999)
	for qi, q := range srQueries {
		var plans [2]*poseidon.Stmt
		for i, useIndex := range []bool{true, false} {
			plan, err := ldbc.SRPlan(q, useIndex)
			if err != nil {
				return err
			}
			if plans[i], err = e.db.PreparePlan(plan); err != nil {
				return err
			}
		}
		sortCol, limited := limitedSortCol(plans[0].Plan())
		params := pg.SRParams(q)
		var want [][]any
		for pi, st := range plans {
			for _, sess := range []*poseidon.Session{is, rs} {
				got, err := sess.QueryAll(context.Background(), st, params)
				if err != nil {
					return fmt.Errorf("check sr%s: %w", q.Name(), err)
				}
				if want == nil {
					want = got
					continue
				}
				if !sameResult(want, got, sortCol, limited) {
					return fmt.Errorf("check sr%s %v: %s plan under %v returned %d rows %v, want %d rows %v",
						q.Name(), params, [2]string{"indexed", "label-scan"}[pi], sessMode(sess, rs),
						len(got), got, len(want), want)
				}
			}
		}
		if e.spec.kind != wireMix {
			continue
		}
		got, err := e.conns[0].QueryText(srTexts[qi], params)
		if err != nil {
			return fmt.Errorf("check wire sr%s: %w", q.Name(), err)
		}
		if !sameResult(want, got, sortCol, limited) {
			return fmt.Errorf("check wire sr%s %v: connection returned %v, in-process %v", q.Name(), params, got, want)
		}
	}
	return nil
}

func sessMode(s, adaptive *poseidon.Session) string {
	if s == adaptive {
		return "adaptive"
	}
	return "interpret"
}

// limitedSortCol reports the output column of a plan's ORDER BY key when
// the plan keeps only the first rows (SR2's last 10 messages).
func limitedSortCol(p *query.Plan) (int, bool) {
	pr, ok := p.Root.(*query.Project)
	if !ok {
		return 0, false
	}
	ob, ok := pr.Input.(*query.OrderBy)
	if !ok || ob.Limit == 0 {
		return 0, false
	}
	key, ok := ob.Key.(*query.Prop)
	if !ok {
		return 0, false
	}
	for i, c := range pr.Cols {
		if p, ok := c.(*query.Prop); ok && *p == *key {
			return i, true
		}
	}
	return 0, false
}

// sameResult compares two results as multisets of rows. A limited
// result may legitimately pick different rows among those tied on the
// sort key at the cut-off, so there only the rows above the cut-off are
// compared, plus how many rows sit at it.
func sameResult(a, b [][]any, sortCol int, limited bool) bool {
	if len(a) != len(b) {
		return false
	}
	if !limited || len(a) == 0 {
		return slices.Equal(rowKeys(a), rowKeys(b))
	}
	cut, ok := minKey(a, sortCol)
	if cutB, okB := minKey(b, sortCol); !ok || !okB || cut != cutB {
		return slices.Equal(rowKeys(a), rowKeys(b))
	}
	above := func(rows [][]any) (kept [][]any, atCut int) {
		for _, r := range rows {
			if v, _ := num(r[sortCol]); v == cut {
				atCut++
			} else {
				kept = append(kept, r)
			}
		}
		return kept, atCut
	}
	ka, na := above(a)
	kb, nb := above(b)
	return na == nb && slices.Equal(rowKeys(ka), rowKeys(kb))
}

func minKey(rows [][]any, col int) (float64, bool) {
	m := math.Inf(1)
	for _, r := range rows {
		v, ok := num(r[col])
		if !ok {
			return 0, false
		}
		m = min(m, v)
	}
	return m, true
}

func num(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case int:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// rowKeys renders rows canonically and sorts them. Integers print alike
// whatever their Go type, so rows decoded from the wire compare equal
// to rows decoded in process.
func rowKeys(rows [][]any) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		var b []byte
		for _, v := range r {
			switch x := v.(type) {
			case string:
				b = fmt.Appendf(b, "s%q|", x)
			default:
				if f, ok := num(v); ok {
					b = fmt.Appendf(b, "n%v|", f)
				} else {
					b = fmt.Appendf(b, "%T%v|", v, v)
				}
			}
		}
		keys[i] = string(b)
	}
	slices.Sort(keys)
	return keys
}

// ackProbe is how many acknowledged ids per label are also looked up
// through the id index.
const ackProbe = 64

// checkAcked requires every acknowledged insert to be readable: each id
// must appear in a label scan, and a sample must also be found through
// the id index.
func checkAcked(db *poseidon.DB, acked *ackSet) error {
	sess := writeSession(db)
	defer sess.Close()
	for li, ids := range acked {
		if len(ids) == 0 {
			continue
		}
		label := ackLabels[li]
		scan, err := db.PreparePlan(&query.Plan{Root: &query.Project{
			Input: &query.NodeScan{Label: label},
			Cols:  []query.Expr{&query.Prop{Col: 0, Key: "id"}},
		}})
		if err != nil {
			return err
		}
		rows, err := sess.QueryAll(context.Background(), scan, nil)
		if err != nil {
			return fmt.Errorf("scan %s: %w", label, err)
		}
		seen := make(map[int64]bool, len(rows))
		for _, r := range rows {
			if id, ok := r[0].(int64); ok {
				seen[id] = true
			}
		}
		for _, id := range ids {
			if !seen[id] {
				return fmt.Errorf("acknowledged %s %d is missing", label, id)
			}
		}
		lookup, err := db.PreparePlan(&query.Plan{Root: &query.Project{
			Input: &query.IndexScan{Label: label, Key: "id", Value: &query.Param{Name: "id"}},
			Cols:  []query.Expr{&query.Prop{Col: 0, Key: "id"}},
		}})
		if err != nil {
			return err
		}
		step := max(1, len(ids)/ackProbe)
		for i := 0; i < len(ids); i += step {
			rows, err := sess.QueryAll(context.Background(), lookup, query.Params{"id": ids[i]})
			if err != nil {
				return fmt.Errorf("index lookup %s %d: %w", label, ids[i], err)
			}
			if len(rows) != 1 {
				return fmt.Errorf("index lookup of acknowledged %s %d returned %d rows", label, ids[i], len(rows))
			}
		}
	}
	return nil
}

// crash simulates a power failure and returns the seconds
// poseidon.Reopen takes to recover the device.
func crash(db *poseidon.DB, log *spanLog, trace uint64) (*poseidon.DB, float64, error) {
	dev := db.Crash()
	runtime.GC() // every timed Reopen starts from the same heap state
	start := now()
	reopened, err := poseidon.Reopen(dev, engineConfig())
	end := now()
	if err != nil {
		return nil, 0, fmt.Errorf("reopen after crash: %w", err)
	}
	log.add(trace, 1, 0, spReopen, start, end)
	return reopened, time.Duration(end - start).Seconds(), nil
}

// setupCrashes is how many crash/Reopen cycles each discarded set-up
// runs for recovery_s.
const setupCrashes = 2

// crashSetUp crashes and recovers a freshly set-up engine setupCrashes
// times and closes it. Its image is the same whatever the workload's
// throughput, so recovery_s does not grow when more inserts fit in the
// window.
func crashSetUp(db *poseidon.DB, log *spanLog, trace uint64) ([]float64, error) {
	var secs []float64
	for i := 0; i < setupCrashes; i++ {
		var s float64
		var err error
		if db, s, err = crash(db, log, trace+uint64(i)); err != nil {
			return nil, err
		}
		secs = append(secs, s)
	}
	db.Close()
	return secs, nil
}

// recoveryCheck is the crash-recovery leg after the measured window:
// crash, a timed Reopen, fsck.Check, and every acknowledged insert
// present. It closes the recovered engine.
func recoveryCheck(db *poseidon.DB, acked *ackSet, log *spanLog) (reopenS, fsckS float64, err error) {
	const trace = 1 << 62
	if db, reopenS, err = crash(db, log, trace); err != nil {
		return 0, 0, err
	}
	defer db.Close()
	start := now()
	rep := fsck.Check(db.Engine())
	end := now()
	log.add(trace, 2, 0, spFsck, start, end)
	if !rep.OK() {
		return reopenS, 0, fmt.Errorf("fsck after recovery: %s", rep)
	}
	if err := checkAcked(db, acked); err != nil {
		return reopenS, 0, fmt.Errorf("after recovery: %w", err)
	}
	return reopenS, time.Duration(end - start).Seconds(), nil
}
