package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"scratchmem/internal/model"
	"scratchmem/internal/policy"
	"scratchmem/internal/progress"
	"scratchmem/internal/smmerr"
)

// TestInterLayerInfeasibleReportsFirstLayer: when the inter-layer DP finds
// no feasible schedule, the error names exactly the first layer whose best
// candidate does not fit — established independently here by a direct,
// memo-free sweep — and the report path answers from the DP's cached
// per-layer sweeps instead of re-estimating.
func TestInterLayerInfeasibleReportsFirstLayer(t *testing.T) {
	n, _ := model.Builtin("ResNet18")
	pl := NewPlanner(0, MinAccesses)
	pl.Cfg.GLBBytes = 256
	pl.InterLayer = true

	_, err := pl.Heterogeneous(n)
	var le *smmerr.LayerError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want a *LayerError", err)
	}
	var ie *InfeasibleError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want an *InfeasibleError inside", err)
	}

	// The independent reference: first layer with no feasible candidate.
	ref := &Planner{Cfg: pl.Cfg, Objective: MinAccesses}
	ref.UseMemo(nil)
	first := -1
	for i := range n.Layers {
		if e := ref.bestForLayer(n, i, false, false); !e.Feasible {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatal("test premise broken: every layer fits in a 256-byte GLB")
	}
	if le.Index != first || le.Name != n.Layers[first].Name {
		t.Errorf("reported layer %d (%s), want first infeasible %d (%s)",
			le.Index, le.Name, first, n.Layers[first].Name)
	}

	// Re-planning on the warm memo — DP sweep plus report path — answers
	// entirely from the caches: no new misses.
	before := pl.Memo.Stats()
	if _, err := pl.Heterogeneous(n); err == nil {
		t.Fatal("second attempt unexpectedly feasible")
	}
	after := pl.Memo.Stats()
	if after.Misses != before.Misses {
		t.Errorf("failure report re-estimated: misses %d -> %d", before.Misses, after.Misses)
	}
	if after.Hits == before.Hits {
		t.Error("second attempt never touched the caches")
	}
}

// TestBestHomogeneousDeterministicAcrossWorkers: with and without an
// observer, at any worker count, the homogeneous search picks
// byte-identical plans.
func TestBestHomogeneousDeterministicAcrossWorkers(t *testing.T) {
	n, _ := model.Builtin("MobileNetV2")
	ctx := context.Background()
	var plans []*Plan
	for _, workers := range []int{1, 8} {
		for _, withProg := range []bool{false, true} {
			pl := NewPlanner(64, MinAccesses)
			pl.Workers = workers
			var prog progress.Func
			if withProg {
				prog = func(progress.Event) {}
			}
			p, err := pl.BestHomogeneousCtx(ctx, n, prog)
			if err != nil {
				t.Fatalf("workers=%d prog=%v: %v", workers, withProg, err)
			}
			plans = append(plans, p)
		}
	}
	for i := 1; i < len(plans); i++ {
		if !reflect.DeepEqual(plans[i], plans[0]) {
			t.Fatalf("plan %d diverges from plan 0 across worker/observer settings", i)
		}
	}
}

// TestSharedMemoAcrossObjectives: a latency planner sharing an access
// planner's memo (the figure drivers' pattern) answers from the shared
// caches and still matches a cold latency planner exactly.
func TestSharedMemoAcrossObjectives(t *testing.T) {
	n, _ := model.Builtin("GoogLeNet")
	ctx := context.Background()
	plA := NewPlanner(128, MinAccesses)
	if _, err := plA.HeterogeneousCtx(ctx, n, nil); err != nil {
		t.Fatal(err)
	}
	plL := NewPlanner(128, MinLatency)
	plL.UseMemo(plA.Memo)
	before := plA.Memo.Stats()
	shared, err := plL.HeterogeneousCtx(ctx, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := plA.Memo.Stats()
	if after.Misses != before.Misses {
		t.Errorf("latency pass re-estimated %d sweeps despite the shared cache", after.Misses-before.Misses)
	}
	cold, err := NewPlanner(128, MinLatency).HeterogeneousCtx(ctx, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared, cold) {
		t.Fatal("shared-memo latency plan diverges from a cold one")
	}
}

// TestMemoNilSafe: a nil *Memo stores nothing, answers nothing and
// reports zero stats.
func TestMemoNilSafe(t *testing.T) {
	var m *Memo
	k := bestKey{cfg: policy.Default(64)}
	m.storeWinner(&k, &bestPair{})
	if m.winner(&k) != nil {
		t.Fatal("nil memo answered a winner question")
	}
	hk := homKey{cfg: policy.Default(64)}
	m.storeRow(&hk, &homContribs{})
	if m.row(&hk) != nil {
		t.Fatal("nil memo answered a sweep row")
	}
	if st := m.Stats(); st != (MemoStats{}) {
		t.Fatalf("nil memo stats = %+v, want zero", st)
	}
}

// TestMemoContext: WithMemo/MemoFrom round-trip, and a bare context
// carries none.
func TestMemoContext(t *testing.T) {
	if MemoFrom(context.Background()) != nil {
		t.Fatal("bare context carries a memo")
	}
	m := NewMemo()
	if got := MemoFrom(WithMemo(context.Background(), m)); got != m {
		t.Fatalf("round-trip returned %p, want %p", got, m)
	}
}

// TestMemoHitPathAllocs: answering a winner question or a sweep row from
// a warm table allocates nothing, and each probe counts as a hit.
func TestMemoHitPathAllocs(t *testing.T) {
	n, _ := model.Builtin("ResNet18")
	pl := NewPlanner(64, MinAccesses)
	if _, err := pl.Heterogeneous(n); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.BestHomogeneous(n); err != nil {
		t.Fatal(err)
	}
	l := &n.Layers[1]
	var e policy.Result
	before := pl.Memo.Stats()
	if got := testing.AllocsPerRun(100, func() { pl.bestLayerInto(&e, l, false, false) }); got != 0 {
		t.Errorf("warm winner probe allocates %.1f objects/op, want 0", got)
	}
	hk := homKey{shape: policy.KeyOf(l), cfg: pl.Cfg}
	if got := testing.AllocsPerRun(100, func() {
		if pl.Memo.row(&hk) == nil {
			t.Fatal("sweep row missing from a warm table")
		}
	}); got != 0 {
		t.Errorf("warm row probe allocates %.1f objects/op, want 0", got)
	}
	if after := pl.Memo.Stats(); after.Misses != before.Misses || after.Hits <= before.Hits {
		t.Errorf("stats %+v -> %+v: want new hits and no new misses", before, after)
	}
}

// TestMemoConcurrent plans several networks under every scheme and both
// objectives from several goroutines on one shared table, as the items of
// one batch do, and checks every plan against a memo-free planner's. CI
// runs it under -race -count=10.
func TestMemoConcurrent(t *testing.T) {
	ctx := context.Background()
	type job struct {
		net   *model.Network
		obj   Objective
		inter bool
		hom   bool
	}
	var jobs []job
	for _, name := range []string{"ResNet18", "MobileNetV2", "GoogLeNet", "TinyCNN"} {
		n, err := model.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range []Objective{MinAccesses, MinLatency} {
			jobs = append(jobs, job{n, obj, false, false}, job{n, obj, true, false}, job{n, obj, false, true})
		}
	}
	run := func(pl *Planner, j job) (*Plan, error) {
		pl.Objective, pl.InterLayer = j.obj, j.inter
		if j.hom {
			return pl.BestHomogeneousCtx(ctx, j.net, nil)
		}
		return pl.HeterogeneousCtx(ctx, j.net, nil)
	}
	want := make([]*Plan, len(jobs))
	for i, j := range jobs {
		ref := &Planner{Cfg: policy.Default(64), Workers: 1}
		p, err := run(ref, j)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}
	m := NewMemo()
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine walks the jobs from a different offset, so
			// misses and hits on the same keys interleave.
			for x := range jobs {
				i := (x + g*len(jobs)/goroutines) % len(jobs)
				pl := &Planner{Cfg: policy.Default(64), Memo: m, Workers: 2}
				got, err := run(pl, jobs[i])
				if err != nil {
					t.Errorf("goroutine %d job %d: %v", g, i, err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d job %d (%s): plan diverges from the memo-free reference", g, i, jobs[i].net.Name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := m.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Errorf("shared table stats %+v, want hits and misses", st)
	}
}
