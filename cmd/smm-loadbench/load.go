package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed loop's concurrency: the callers are DSE and NAS
// scripts that wait for each reply, and the reference machine has two
// cores, so at most two requests are ever in flight.
const clients = 2

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: clients + 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// loadResult is what one closed-loop pass over a request list observed.
type loadResult struct {
	latency   []time.Duration // per HTTP request, send to last body byte
	wall      time.Duration
	attempted int // plan documents requested
	delivered int // plan documents answered with status 200
	reqBytes  int64
	respBytes int64
	// kept holds the response bodies of the requests listed in keep.
	kept map[int][]byte
	// firstErr describes the first failed request, for the error report.
	firstErr string
}

func (r *loadResult) failed() int { return r.attempted - r.delivered }

var statusKey = []byte(`"status":`)

// countOK counts the items of a batch response whose status is 200, however
// the response is indented. Plan documents have no "status" key.
func countOK(body []byte) int {
	n := 0
	for {
		i := bytes.Index(body, statusKey)
		if i < 0 {
			return n
		}
		body = bytes.TrimLeft(body[i+len(statusKey):], " \t\r\n")
		if bytes.HasPrefix(body, []byte("200")) {
			n++
		}
	}
}

// drive sends reqs through the closed loop: each of the clients sends its
// next request only once the previous reply has been read in full. Bodies
// of the requests in keep are returned for checking.
func drive(ctx context.Context, hc *http.Client, urls []string, reqs []request, keep []int, bases []*baseNet) *loadResult {
	keepSet := make(map[int]bool, len(keep))
	for _, i := range keep {
		keepSet[i] = true
	}
	var next atomic.Int64
	parts := make([]loadResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range parts {
		wg.Add(1)
		go func(res *loadResult) {
			defer wg.Done()
			res.kept = make(map[int][]byte)
			var body, resp bytes.Buffer
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := &reqs[i]
				body.Reset()
				body.Write(r.appendBody(body.AvailableBuffer(), bases))
				res.attempted += r.plans()
				res.reqBytes += int64(body.Len())
				t0 := time.Now()
				status, err := post(ctx, hc, urls[r.member]+r.path(), body.Bytes(), &resp)
				res.latency = append(res.latency, time.Since(t0))
				res.respBytes += int64(resp.Len())
				ok := 0
				switch {
				case err != nil:
					res.noteErr(fmt.Sprintf("request %d: %v", i, err))
				case status != http.StatusOK:
					res.noteErr(fmt.Sprintf("request %d: status %d: %.200s", i, status, resp.Bytes()))
				case r.batch:
					ok = countOK(resp.Bytes())
					if ok != r.plans() {
						res.noteErr(fmt.Sprintf("batch %d: %d of %d items failed", i, r.plans()-ok, r.plans()))
					}
				default:
					ok = 1
				}
				res.delivered += ok
				if keepSet[i] && ok > 0 {
					res.kept[i] = bytes.Clone(resp.Bytes())
				}
			}
		}(&parts[c])
	}
	wg.Wait()
	out := &loadResult{wall: time.Since(start), kept: make(map[int][]byte)}
	for i := range parts {
		p := &parts[i]
		out.latency = append(out.latency, p.latency...)
		out.attempted += p.attempted
		out.delivered += p.delivered
		out.reqBytes += p.reqBytes
		out.respBytes += p.respBytes
		for k, v := range p.kept {
			out.kept[k] = v
		}
		if out.firstErr == "" {
			out.firstErr = p.firstErr
		}
	}
	sort.Slice(out.latency, func(i, j int) bool { return out.latency[i] < out.latency[j] })
	return out
}

func (r *loadResult) noteErr(msg string) {
	if r.firstErr == "" {
		r.firstErr = msg
	}
}

// post sends one JSON POST and reads the whole response into resp.
func post(ctx context.Context, hc *http.Client, url string, body []byte, resp *bytes.Buffer) (int, error) {
	resp.Reset()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	r, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer r.Body.Close()
	if _, err := resp.ReadFrom(r.Body); err != nil {
		return 0, err
	}
	return r.StatusCode, nil
}

// percentile returns the nearest-rank q-quantile of sorted durations.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}
