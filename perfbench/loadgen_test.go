package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// countingListener counts the connections a server accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestLoadgenTimesFromDueTime stalls the first cold request and checks
// that the cold requests queued behind it on the cold connection carry
// the stall in their latency (no coordinated omission), that every
// request still goes out on schedule, that reads on their own
// connection do not wait, and that the generator opens at most two
// connections.
func TestLoadgenTimesFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	const gap = 20 * time.Millisecond
	var stalled atomic.Bool
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && stalled.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
		w.Write([]byte("ok"))
	}))
	cl := &countingListener{Listener: ts.Listener}
	ts.Listener = cl
	ts.Start()
	defer ts.Close()
	gen := newLoadgen(ts.URL)
	defer gen.close()

	ok := func(int, http.Header, []byte) (outcome, error) { return outcome{}, nil }
	var reqs []request
	for i := 0; i < 10; i++ {
		due := time.Duration(i) * gap
		reqs = append(reqs,
			request{due: due, class: classCold, method: http.MethodPost, path: "/", check: ok},
			request{due: due + gap/2, class: classRead, method: http.MethodGet, path: "/", check: ok})
	}
	for _, s := range gen.play(context.Background(), reqs, nil, 0) {
		if s.err != nil {
			t.Fatal(s.err)
		}
		if s.late() > stall/3 {
			t.Errorf("%s due %v sent %v late", s.req.method, s.req.due, s.late())
		}
		switch lat := s.latency(); {
		case s.req.class == classCold && lat < stall-s.req.due:
			t.Errorf("cold request due %v: latency %v hides the %v stall ahead of it", s.req.due, lat, stall)
		case s.req.class == classRead && lat > stall/2:
			t.Errorf("read due %v waited %v behind the stalled cold request", s.req.due, lat)
		}
	}
	if n := cl.accepted.Load(); n > 2 {
		t.Errorf("generator opened %d connections, want at most 2", n)
	}
}

// TestScheduleIsSeeded checks that one seed always draws the same
// schedule and another seed a different one, with the documented mix.
func TestScheduleIsSeeded(t *testing.T) {
	warm := []warmRun{{body: []byte(`{"a":1}`), path: "/v1/runs/r-1/events"},
		{body: []byte(`{"a":2}`), path: "/v1/runs/r-2/events"}}
	strip := func(rs []request) []request {
		out := append([]request(nil), rs...)
		for i := range out {
			out[i].check = nil
		}
		return out
	}
	a := strip(schedule(tinyScale, 7, 2*time.Second, warm))
	if b := strip(schedule(tinyScale, 7, 2*time.Second, warm)); !reflect.DeepEqual(a, b) {
		t.Error("the same seed drew two schedules")
	}
	if c := strip(schedule(tinyScale, 8, 2*time.Second, warm)); reflect.DeepEqual(a, c) {
		t.Error("two seeds drew one schedule")
	}
	cold, gets, reads := 0, 0, 0
	for i, r := range a {
		if i > 0 && r.due < a[i-1].due {
			t.Fatalf("request %d due %v before its predecessor", i, r.due)
		}
		switch {
		case r.class == classCold:
			cold++
		case r.method == http.MethodGet:
			gets++
			reads++
		default:
			reads++
		}
	}
	n := int(2 * time.Second / tinyScale.coldGap)
	if cold != n || reads != n*(tinyScale.hitsPerCold+tinyScale.logsPerCold) || gets != n*tinyScale.logsPerCold {
		t.Errorf("%d cold, %d reads of which %d event-log GETs", cold, reads, gets)
	}
}
