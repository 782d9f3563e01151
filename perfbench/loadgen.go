package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"
)

// class is a request class of the serve mix.
type class int

const (
	classCold class = iota // cache-miss simulation submissions
	classRead              // cache-hit resubmissions and event-log reads
)

// request is one entry of the open loop's seeded schedule.
type request struct {
	due    time.Duration // send time, from the start of the schedule
	class  class
	method string
	path   string
	body   []byte
	// check validates the response; it runs on the sending goroutine
	// right after the response is read, so bodies are never retained.
	check func(status int, h http.Header, body []byte) (outcome, error)
}

// outcome is what a response check extracts for the report.
type outcome struct {
	id         string // run id (cold)
	digest     string
	bytes      int
	queue      time.Duration // service queue wait (cold)
	exec       time.Duration // service execution (cold)
	server     time.Duration // Finished-Submitted as the service saw it (cold)
	events     int
	traces     int
	status     int
	layerStats *layerTotals // the run's telemetry (cold)
}

// sample is one request as sent and answered.
type sample struct {
	req *request
	// From the start of the schedule: when the request was handed to
	// its client, when it got its connection, and when it was answered.
	sent, conn, done time.Duration
	out              outcome
	err              error
}

// latency is the time from the request's due time to its answer, so a
// stall also charges the requests scheduled behind it.
func (s sample) latency() time.Duration { return s.done - s.req.due }

// late is how far behind its schedule the generator sent the request.
func (s sample) late() time.Duration { return s.sent - s.req.due }

// loadgen is the open-loop generator. Each class has its own client
// limited to one keep-alive connection, so the generator never holds
// more than two connections and a read never waits behind a
// simulation on the client side.
type loadgen struct {
	base       string
	cold, read *http.Client
}

func newLoadgen(base string) *loadgen {
	client := func() *http.Client {
		return &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
	}
	return &loadgen{base: base, cold: client(), read: client()}
}

// close drops the generator's idle connections.
func (g *loadgen) close() {
	g.cold.CloseIdleConnections()
	g.read.CloseIdleConnections()
}

// play sends every request of reqs (sorted by due time) at its due
// time on a goroutine of its own, so a slow answer never delays a
// later send, and returns once every request is answered. A cancelled
// ctx stops sending; requests never sent carry ctx's error.
func (g *loadgen) play(ctx context.Context, reqs []request, spans *spanLog, cause int) []sample {
	out := make([]sample, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		out[i].req = &reqs[i]
		if wait := reqs[i].due - time.Since(start); wait > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(wait):
			}
		}
		if ctx.Err() != nil {
			out[i].err = ctx.Err()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = g.send(ctx, start, &reqs[i], spans, cause)
		}()
	}
	wg.Wait()
	return out
}

// send issues one request and checks its answer.
func (g *loadgen) send(ctx context.Context, start time.Time, r *request, spans *spanLog, cause int) sample {
	s := sample{req: r, sent: time.Since(start)}
	id := spans.begin(r.method+" "+r.path, cause)
	client := g.read
	if r.class == classCold {
		client = g.cold
	}
	var conn atomic.Int64
	traced := httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { conn.Store(int64(time.Since(start))) },
	})
	status, h, body, err := fetch(traced, client, r.method, g.base+r.path, r.body)
	s.done = time.Since(start)
	s.conn = time.Duration(conn.Load())
	spans.end(id)
	if err != nil {
		s.err = err
		return s
	}
	s.out, s.err = r.check(status, h, body)
	s.out.status = status
	s.out.bytes = len(body)
	return s
}

// fetch performs one request and reads the whole answer.
func fetch(ctx context.Context, c *http.Client, method, url string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}
