package policy

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"scratchmem/internal/layer"
	"scratchmem/internal/model"
)

// memoTestLayers returns a network with repeated shapes (ResNet18's basic
// blocks) so hit paths actually fire.
func memoTestLayers(t *testing.T) []layer.Layer {
	t.Helper()
	n, err := model.Builtin("ResNet18")
	if err != nil {
		t.Fatal(err)
	}
	return n.Layers
}

// TestMemoMatchesDirect: every memoized answer — first (miss) and second
// (hit) — equals the direct estimator under EstimateFast's sweep contract,
// with the caller's layer name patched back on hits.
func TestMemoMatchesDirect(t *testing.T) {
	layers := memoTestLayers(t)
	cfg := Default(64)
	m := NewMemo()
	for pass := 0; pass < 2; pass++ {
		for i := range layers {
			l := &layers[i]
			for _, id := range IDs() {
				for _, pf := range []bool{false, true} {
					o := Options{Prefetch: pf}
					got := m.Estimate(l, id, o, cfg)
					// The reference is EstimateFast: the memo stores the sweep
					// contract's results (feasible byte-identical to Estimate,
					// infeasible with zeroed traffic fields).
					want := EstimateFast(l, id, o, cfg)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("pass %d %s %s pf=%v: memo %+v != direct %+v", pass, l.Name, id, pf, got, want)
					}
					if got.Layer != l.Name {
						t.Fatalf("memo result carries layer %q, want %q", got.Layer, l.Name)
					}
				}
			}
			fb := m.Fallback(l, Options{}, cfg)
			if want := FallbackEstimate(l, Options{}, cfg); !reflect.DeepEqual(fb, want) {
				t.Fatalf("fallback %s: memo %+v != direct %+v", l.Name, fb, want)
			}
		}
	}
	st := m.Stats()
	if st.Hits == 0 || st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("stats after two passes: %+v, want all non-zero", st)
	}
	// Pass two repeats pass one's keys exactly, so hits >= misses.
	if st.Hits < st.Misses {
		t.Fatalf("stats %+v: second pass should answer from the table", st)
	}
}

// TestMemoEstimateNSharesNormalizedKeys: forcing a block size on a policy
// that ignores block sizes shares the entry with the unforced call.
func TestMemoEstimateNSharesNormalizedKeys(t *testing.T) {
	layers := memoTestLayers(t)
	cfg := Default(64)
	m := NewMemo()
	l := &layers[0]
	a := m.EstimateN(l, IntraLayer, Options{}, cfg, 7)
	b := m.EstimateN(l, IntraLayer, Options{}, cfg, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("normalized keys disagree: %+v vs %+v", a, b)
	}
	if st := m.Stats(); st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v: want the second call to hit the first's entry", st)
	}
	// EstimateN answers match the direct function.
	direct := EstimateN(l, P4PartialIfmap, Options{}, cfg, 4)
	memod := m.EstimateN(l, P4PartialIfmap, Options{}, cfg, 4)
	if !reflect.DeepEqual(direct, memod) {
		t.Fatalf("EstimateN: memo %+v != direct %+v", memod, direct)
	}
}

// TestMemoNilSafe: a nil *Memo computes directly and reports zero stats.
func TestMemoNilSafe(t *testing.T) {
	layers := memoTestLayers(t)
	cfg := Default(64)
	var m *Memo
	got := m.Estimate(&layers[0], P2FilterReuse, Options{Prefetch: true}, cfg)
	want := Estimate(&layers[0], P2FilterReuse, Options{Prefetch: true}, cfg)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("nil memo: %+v != %+v", got, want)
	}
	if !reflect.DeepEqual(m.Fallback(&layers[0], Options{}, cfg), FallbackEstimate(&layers[0], Options{}, cfg)) {
		t.Fatal("nil memo fallback diverges")
	}
	m.CountHit() // must not panic
	m.CountMiss()
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

// TestMemoCompanion: first installer wins, including under a race.
func TestMemoCompanion(t *testing.T) {
	m := NewMemo()
	var wg sync.WaitGroup
	got := make([]any, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = m.Companion(func() any { return new(int) })
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatal("Companion returned different instances to different callers")
		}
	}
}

// TestMemoConcurrent hammers one table from many goroutines (run under
// -race) and checks every answer against the direct estimator.
func TestMemoConcurrent(t *testing.T) {
	layers := memoTestLayers(t)
	cfg := Default(64)
	m := NewMemo()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range layers {
				l := &layers[i]
				for _, id := range IDs() {
					got := m.Estimate(l, id, Options{Prefetch: true}, cfg)
					want := EstimateFast(l, id, Options{Prefetch: true}, cfg)
					if !reflect.DeepEqual(got, want) {
						select {
						case errs <- nil:
						default:
						}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case <-errs:
		t.Fatal("concurrent memoized answer diverged from direct estimation")
	default:
	}
	st := m.Stats()
	if int64(st.Entries) > st.Misses {
		t.Fatalf("stats %+v: more entries than misses", st)
	}
}

// TestMemoHitPathAllocs pins the hot paths' allocation behaviour: a table
// hit allocates nothing, and the direct estimators are allocation-free
// too, so sweeps are bounded by arithmetic, not the garbage collector.
func TestMemoHitPathAllocs(t *testing.T) {
	layers := memoTestLayers(t)
	cfg := Default(64)
	m := NewMemo()
	l := &layers[0]
	var e Result
	m.EstimateInto(&e, l, P1IfmapReuse, Options{Prefetch: true}, cfg)
	if n := testing.AllocsPerRun(100, func() {
		m.EstimateInto(&e, l, P1IfmapReuse, Options{Prefetch: true}, cfg)
	}); n != 0 {
		t.Errorf("memo hit allocates %.1f objects/op, want 0", n)
	}
	sh := NewShape(l, cfg.IncludePadding)
	if n := testing.AllocsPerRun(100, func() {
		sh.EstimateFastInto(&e, P3PerChannel, Options{}, cfg)
	}); n != 0 {
		t.Errorf("EstimateFastInto allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = Estimate(l, IntraLayer, Options{}, cfg)
	}); n != 0 {
		t.Errorf("Estimate allocates %.1f objects/op, want 0", n)
	}
}
