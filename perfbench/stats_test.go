package main

import (
	"testing"
	"time"

	"poseidon/internal/ldbc"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 500}, {0.99, 990}, {1, 1000}, {0.0001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %d, want 0", got)
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", got)
	}
	if got := beyond(999, 0.99); got != 9 {
		t.Errorf("beyond(999, 0.99) = %d, want 9", got)
	}
}

func TestMedianAndRatio(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	in := []float64{4, 1, 3, 2}
	if got := median(in); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if in[0] != 4 {
		t.Errorf("median sorted its input in place")
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio with empty base = %v, want 0", got)
	}
	if got := ratio(1, 4); got != 0.25 {
		t.Errorf("ratio(1, 4) = %v", got)
	}
	if got := meanUs([]int64{1000, 3000}); got != 2 {
		t.Errorf("meanUs = %v, want 2", got)
	}
}

func TestSplitWindow(t *testing.T) {
	for _, c := range []struct {
		d, slice, untraced, traced time.Duration
	}{
		{15 * time.Second, time.Second / 2, 7500 * time.Millisecond, 7500 * time.Millisecond},
		{1250 * time.Millisecond, time.Second / 2, 750 * time.Millisecond, 500 * time.Millisecond},
		{800 * time.Millisecond, time.Second / 2, 500 * time.Millisecond, 300 * time.Millisecond},
	} {
		u, tr := splitWindow(c.d, c.slice)
		if u != c.untraced || tr != c.traced {
			t.Errorf("splitWindow(%v, %v) = %v, %v; want %v, %v", c.d, c.slice, u, tr, c.untraced, c.traced)
		}
	}
}

func TestSummarizeSelfTime(t *testing.T) {
	var l spanLog
	l.add(7, 1, 0, spOp, 0, 100)
	l.add(7, 2, 1, spQuery, 10, 30)
	l.add(7, 3, 1, spCollect, 30, 90)
	l.add(8, 1, 0, spOpen, 0, 50) // a set-up root: no self time
	st := summarize(l.spans)
	if len(st.self) != 1 || st.self[0] != 20 {
		t.Fatalf("self = %v, want [20]", st.self)
	}
	if d := st.durs[spCollect]; len(d) != 1 || d[0] != 60 {
		t.Errorf("collect durations = %v, want [60]", d)
	}
}

func TestSameResult(t *testing.T) {
	a := [][]any{{int64(1), "x"}, {int64(2), "y"}}
	b := [][]any{{2, "y"}, {1, "x"}} // wire ints, other order
	if !sameResult(a, b, 0, false) {
		t.Errorf("same rows in another order and int type differ")
	}
	if sameResult(a, [][]any{{int64(1), "x"}, {int64(2), "z"}}, 0, false) {
		t.Errorf("different rows compare equal")
	}
	// A limited result may pick either of two rows tied at the cut-off.
	top := [][]any{{int64(9), "a"}, {int64(5), "b"}}
	tie := [][]any{{int64(9), "a"}, {int64(5), "c"}}
	if !sameResult(top, tie, 0, true) {
		t.Errorf("rows tied at the cut-off of a limited result differ")
	}
	if sameResult(top, [][]any{{int64(8), "a"}, {int64(5), "b"}}, 0, true) {
		t.Errorf("rows above the cut-off differ but compare equal")
	}
}

func TestLimitedSortCol(t *testing.T) {
	for _, q := range ldbc.SRQueries() {
		plan, err := ldbc.SRPlan(q, true)
		if err != nil {
			t.Fatal(err)
		}
		col, ok := limitedSortCol(plan)
		if want := q.Num == 2; ok != want || (ok && col != 2) {
			t.Errorf("sr%s: limitedSortCol = %d, %v", q.Name(), col, ok)
		}
	}
}

func TestGroupedPercentile(t *testing.T) {
	// Three groups of 1000 ops; the middle one is slow. Its p99 is not
	// the median, and a lone group falls back to the whole window.
	var start, lat []int64
	for g := int64(0); g < 3; g++ {
		for i := int64(1); i <= 1000; i++ {
			start = append(start, g*1000+i)
			v := i
			if g == 1 {
				v *= 10
			}
			lat = append(lat, v)
		}
	}
	if got, groups := groupedPercentile(start, lat, 0.99, 1000, 15); got != 990 || groups != 3 {
		t.Errorf("groupedPercentile = %v over %d groups, want 990 over 3", got, groups)
	}
	if got, groups := groupedPercentile(start[:999], lat[:999], 0.5, 1000, 15); got != 500 || groups != 1 {
		t.Errorf("groupedPercentile of a short window = %v over %d groups, want 500 over 1", got, groups)
	}
}
