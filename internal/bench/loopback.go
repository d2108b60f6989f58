package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"fidelity/internal/campaign"
	"fidelity/internal/distrib"
	"fidelity/internal/telemetry"
)

// loopback is an in-process fidelityd coordinator served over loopback HTTP,
// with fidelityd serve's defaults: in-memory state, default lease TTL, no
// audits.
type loopback struct {
	coord  *distrib.Coordinator
	srv    *http.Server
	url    string
	served chan error
}

// startLoopback builds the coordinator for spec and starts serving it on an
// ephemeral loopback port.
func startLoopback(spec distrib.CampaignSpec) (*loopback, error) {
	tel := telemetry.New()
	tel.SetSource("coordinator")
	c, err := distrib.NewCoordinator(distrib.CoordinatorOptions{Spec: spec, Telemetry: tel})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{
		coord:  c,
		srv:    &http.Server{Handler: c.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { lb.served <- lb.srv.Serve(ln) }()
	return lb, nil
}

// run drives the campaign to its result with n fidelityd workers, each
// holding one HTTP connection (wrap, when non-nil, wraps each worker's
// transport). It returns the assembled result and the wall time from the
// workers' start to the result; it waits for every worker to exit.
func (lb *loopback) run(ctx context.Context, n int, wrap func(http.RoundTripper) http.RoundTripper) (*campaign.StudyResult, time.Duration, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		var rt http.RoundTripper = tr
		if wrap != nil {
			rt = wrap(tr)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer tr.CloseIdleConnections()
			errs[i] = distrib.Work(ctx, distrib.WorkerOptions{
				BaseURL:      lb.url,
				ID:           fmt.Sprintf("worker-%d", i),
				HTTPClient:   &http.Client{Transport: rt},
				Telemetry:    telemetry.New(),
				PublishEvery: publishEvery,
			})
		}(i)
	}
	res, err := lb.coord.Result(ctx)
	wall := time.Since(start)
	// A worker may be asleep on a poll back-off after the last report;
	// the campaign is over, so stop it rather than wait it out.
	cancel()
	wg.Wait()
	if err != nil {
		return nil, wall, err
	}
	for _, werr := range errs {
		if werr != nil && !errors.Is(werr, context.Canceled) {
			return nil, wall, werr
		}
	}
	return res, wall, nil
}

// close stops the server and waits for it to return.
func (lb *loopback) close() error {
	err := lb.srv.Close()
	if serr := <-lb.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// wireStats times every coordinator request a worker makes, as a client
// sees it, and counts what the exchanges carried. The untimed campaigns use
// it, without a tracer, to count empty leases.
type wireStats struct {
	// tr, when non-nil, records a span around every request.
	tr *tracer
	// parent is the span of the campaign being served; set between
	// campaigns, before its workers start.
	parent int

	mu          sync.Mutex
	leaseMS     []float64
	reportMS    []float64
	requests    int
	emptyLeases int
	retries     int
	reportBytes int64
}

// wrap returns a RoundTripper that records into s and delegates to inner.
func (s *wireStats) wrap(inner http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		id := 0
		if s.tr != nil {
			id = s.tr.begin(s.parent, "distrib", "distrib "+req.Method+" "+req.URL.Path)
		}
		start := time.Now()
		resp, err := inner.RoundTrip(req)
		var body []byte
		if err == nil {
			// Read the reply inside the span: a client has not received it
			// until its body has arrived.
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			resp.Body = io.NopCloser(bytes.NewReader(body))
		}
		ms := float64(time.Since(start)) / 1e6
		if s.tr != nil {
			s.tr.end(id)
		}
		if req.Context().Err() == nil {
			// Requests cut off because the campaign already ended are not
			// round trips the worker would have retried.
			s.record(req, resp, body, err, ms)
		}
		if err != nil {
			return nil, err
		}
		return resp, nil
	})
}

// samples is the smaller of the lease and report round-trip counts.
func (s *wireStats) samples() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return min(len(s.leaseMS), len(s.reportMS))
}

func (s *wireStats) record(req *http.Request, resp *http.Response, body []byte, err error, ms float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests++
	if err != nil || resp.StatusCode >= 500 {
		s.retries++ // the worker retries transport errors and 5xx replies
		return
	}
	switch req.URL.Path {
	case "/v1/lease":
		s.leaseMS = append(s.leaseMS, ms)
		var lr distrib.LeaseReply
		if json.Unmarshal(body, &lr) == nil && lr.Lease == nil && !lr.Done {
			s.emptyLeases++
		}
	case "/v1/report":
		s.reportMS = append(s.reportMS, ms)
		s.reportBytes += req.ContentLength
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }
