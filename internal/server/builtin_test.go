package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	scratchmem "scratchmem"
	"scratchmem/internal/layer"
	"scratchmem/internal/model"
)

// serve sends one request through h.
func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// sharedCopy is a deep copy of a shared builtin and its canonical JSON.
type sharedCopy struct {
	net   *scratchmem.Network
	canon []byte
}

func copyShared(t *testing.T, name string) (*scratchmem.Network, sharedCopy) {
	t.Helper()
	n, canon, err := model.SharedBuiltin(name)
	if err != nil {
		t.Fatal(err)
	}
	return n, sharedCopy{&scratchmem.Network{Name: n.Name, Layers: append([]layer.Layer(nil), n.Layers...)}, bytes.Clone(canon)}
}

func (c sharedCopy) check(t *testing.T, name, after string) {
	t.Helper()
	n, canon, _ := model.SharedBuiltin(name)
	if !reflect.DeepEqual(n, c.net) || !bytes.Equal(canon, c.canon) {
		t.Fatalf("%s: %s changed the shared builtin", name, after)
	}
}

// TestSharedBuiltinsUnchanged: a "model" resolves to one network per
// builtin that every request shares (model.SharedBuiltin), so nothing the
// server hands a resolved network to may write it: planning in every
// scheme and down the degradation ladder, the simulate, baseline, DSE and
// trace routes, the snapshot record encoder, and the peer-fill check
// (scratchmem.VerifyPlanDocument).
func TestSharedBuiltinsUnchanged(t *testing.T) {
	h := New(Config{}).Handler()
	for _, name := range model.AllBuiltinNames() {
		shared, before := copyShared(t, name)
		for _, scheme := range []string{``, `, "homogeneous": true`, `, "interlayer": true`} {
			for _, obj := range []string{"accesses", "latency"} {
				// At 1 kB every builtin but TinyCNN descends the ladder.
				for _, kb := range []int{4096, 1} {
					body := fmt.Sprintf(`{"model": %q, "glb_kb": %d, "objective": %q%s}`, name, kb, obj, scheme)
					rec := serve(h, http.MethodPost, "/v1/plan", body)
					if rec.Code != http.StatusOK {
						t.Fatalf("%s: %d %s", body, rec.Code, rec.Body.Bytes())
					}
					before.check(t, name, "planning "+body)
					if kb == 1 {
						continue
					}
					if _, _, err := scratchmem.VerifyPlanDocument(shared, rec.Body.Bytes()); err != nil {
						t.Fatalf("%s: %v", body, err)
					}
					before.check(t, name, "VerifyPlanDocument")
				}
			}
		}
		body := fmt.Sprintf(`{"model": %q, "glb_kb": 256}`, name)
		rec := serve(h, http.MethodPost, "/v1/plan", body)
		key := rec.Header().Get("X-SMM-Plan-Key")
		for _, route := range []struct{ method, path, body string }{
			{http.MethodPost, "/v1/simulate", body},
			{http.MethodPost, "/v1/simulate", fmt.Sprintf(`{"model": %q, "glb_kb": 256, "baseline": {"split_percent": 50}}`, name)},
			{http.MethodPost, "/v1/dse", body},
			{http.MethodGet, "/v1/trace/" + key + "?format=csv", ""},
			{http.MethodGet, "/v1/cache/snapshot", ""},
			{http.MethodGet, "/v1/models", ""},
		} {
			if rec := serve(h, route.method, route.path, route.body); rec.Code != http.StatusOK {
				t.Fatalf("%s %s: %d %.200s", route.method, route.path, rec.Code, rec.Body.Bytes())
			}
			before.check(t, name, route.method+" "+route.path)
		}
	}
}

// TestSharedBuiltinConcurrentRoutes runs /v1/plan, /v1/simulate, /v1/dse
// and /v1/models at once on one builtin, each request a cache miss, so
// the race detector sees every route read the shared network while the
// others do.
func TestSharedBuiltinConcurrentRoutes(t *testing.T) {
	h := New(Config{Workers: 4}).Handler()
	_, before := copyShared(t, "MobileNetV2")
	routes := []string{"/v1/plan", "/v1/simulate", "/v1/dse", "/v1/models"}
	var wg sync.WaitGroup
	errs := make(chan string, len(routes)*6)
	for _, path := range routes {
		for i := range 6 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				method, body := http.MethodPost, fmt.Sprintf(`{"model": "MobileNetV2", "glb_kb": %d}`, 64+16*i)
				if path == "/v1/models" {
					method, body = http.MethodGet, ""
				}
				if rec := serve(h, method, path, body); rec.Code != http.StatusOK {
					errs <- fmt.Sprintf("%s: %d %.200s", path, rec.Code, rec.Body.Bytes())
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	before.check(t, "MobileNetV2", "concurrent requests")
}
