package main

import "testing"

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		// Two overlapping children (concurrent workers) cover [10, 50).
		{ID: 2, Parent: 1, Name: "unit", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "unit", Start: 20, End: 50},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "unit", Start: 90, End: 120},
		// A grandchild is its parent's business, not the pass's.
		{ID: 5, Parent: 2, Name: "des.Run", Start: 12, End: 18},
	}
	roll := rollup(spans)
	if got := roll["pass"]; got.Count != 1 || got.TotalNs != 100 || got.SelfNs != 50 {
		t.Errorf("pass = %+v, want total 100, self 100-40-10 = 50", got)
	}
	if got := roll["unit"]; got.Count != 3 || got.TotalNs != 80 || got.SelfNs != 74 {
		t.Errorf("unit = %+v, want total 20+30+30 = 80, self 80-6 = 74", got)
	}
	if got := roll["des.Run"]; got.SelfNs != 6 {
		t.Errorf("des.Run = %+v, want self 6", got)
	}
}

func TestCoveredMergesAndClips(t *testing.T) {
	kids := []span{{Start: 5, End: 15}, {Start: 0, End: 8}, {Start: 30, End: 40}, {Start: 35, End: 38}, {Start: 60, End: 70}}
	if got := covered(2, 50, kids); got != 13+10 {
		t.Errorf("covered = %d, want [2,15) + [30,40) = 23", got)
	}
	if got := covered(0, 10, nil); got != 0 {
		t.Errorf("covered with no children = %d", got)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin(0, "x", "")
	r.end(id)
	if err := r.do(id, "y", "", func() error { return nil }); err != nil || id != 0 {
		t.Errorf("nil recorder: id %d err %v", id, err)
	}
	rec := newRecorder()
	root := rec.begin(0, "root", "k")
	_ = rec.do(root, "child", "k", func() error { return nil })
	rec.end(root)
	got := rec.snapshot()
	if len(got) != 2 || got[1].Parent != got[0].ID || got[0].End < got[1].End {
		t.Errorf("spans = %+v", got)
	}
}
