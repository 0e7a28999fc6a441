package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// httpClient is one closed-loop client on its own keep-alive connection.
type httpClient struct {
	base string
	c    *http.Client
}

func newHTTPClient(base string) *httpClient {
	return &httpClient{base: base, c: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}}
}

// post sends one request and reads the whole answer.
func (h *httpClient) post(ctx context.Context, r request, traced bool) (int, []byte, error) {
	url := h.base + r.path
	if traced {
		url += "?trace=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Change-ID", r.id)
	resp, err := h.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// tally is what one measured pass saw.
type tally struct {
	latencyMS []float64 // of correct answers, request write to last body byte
	attempted int
	failed    int
	bytes     int64 // body bytes of correct answers
	busy      time.Duration
	firstErr  error
}

func (t *tally) add(o tally) {
	t.latencyMS = append(t.latencyMS, o.latencyMS...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.bytes += o.bytes
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func (t *tally) correct() int { return t.attempted - t.failed }

// session is one prepared child with its clients and their streams, which
// carry on from set-up through every pass so no request id ever repeats.
type session struct {
	w     *workload
	child *child
	conns []*httpClient
	next  []func() request
}

// one sends client c's next request, checks the answer and tallies it. A
// transport error, a non-2xx status and a failed check all count as failed
// and stay in the attempt count.
func (s *session) one(ctx context.Context, c int, traced bool, rec *recorder, t *tally) {
	req := s.next[c]()
	var id int
	if rec != nil {
		id = rec.start("http.request", req.id, 0)
	}
	t0 := time.Now()
	status, body, err := s.conns[c].post(ctx, req, traced && s.w.traceable)
	lat := time.Since(t0)
	if rec != nil {
		rec.end(id)
	}
	if err == nil {
		err = s.w.check(req, status, body, traced && s.w.traceable)
	}
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = fmt.Errorf("%s: %w", req.id, err)
		}
		return
	}
	t.latencyMS = append(t.latencyMS, float64(lat)/float64(time.Millisecond))
	t.bytes += int64(len(body))
}

// drive runs the clients closed-loop — each sends its next request only
// after the previous answer was read and checked — until stop says so, and
// returns the merged tally with busy set to the pass's wall time.
func (s *session) drive(ctx context.Context, traced bool, rec *recorder, stop func(sent int) bool) tally {
	var total tally
	start := time.Now()
	if s.w.paired {
		// One round = one request per client, in flight together.
		for round := 0; !stop(round) && ctx.Err() == nil; round++ {
			parts := make([]tally, clients)
			var wg sync.WaitGroup
			for c := range parts {
				wg.Add(1)
				go func() {
					defer wg.Done()
					s.one(ctx, c, traced, rec, &parts[c])
				}()
			}
			wg.Wait()
			for _, p := range parts {
				total.add(p)
			}
		}
	} else {
		parts := make([]tally, clients)
		var wg sync.WaitGroup
		for c := range parts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for sent := 0; !stop(sent) && ctx.Err() == nil; sent++ {
					s.one(ctx, c, traced, rec, &parts[c])
				}
			}()
		}
		wg.Wait()
		for _, p := range parts {
			total.add(p)
		}
	}
	total.busy = time.Since(start)
	return total
}

// forDuration stops a pass once d has elapsed.
func forDuration(d time.Duration) func(int) bool {
	deadline := time.Now().Add(d)
	return func(int) bool { return !time.Now().Before(deadline) }
}

// setUp starts a fresh child for w and takes it to the point measuring can
// begin: /healthz ok, workflow deployed or cache pre-warmed, warm-up sent
// and checked. It returns the session and how long all that took — the
// go build is not in it.
func setUp(ctx context.Context, bin string, w *workload) (*session, time.Duration, error) {
	// Truncating the previous child's log (130 MB on exec_plain) is the
	// benchmark's own cost, so it happens before the clock starts.
	logf, err := createLog(fmt.Sprintf("%s/cornetd-%s.log", outDir, w.name))
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	ch, err := startChild(ctx, bin, w.flags, logf)
	if err != nil {
		return nil, 0, err
	}
	s := &session{w: w, child: ch}
	for c := 0; c < clients; c++ {
		s.conns = append(s.conns, newHTTPClient(ch.base))
		s.next = append(s.next, w.stream(c))
	}
	if w.prepare != nil {
		if err := w.prepare(ctx, s.conns[0]); err != nil {
			ch.stop()
			return nil, 0, fmt.Errorf("%s: prepare: %w", w.name, err)
		}
	}
	warm := s.drive(ctx, false, nil, func(sent int) bool { return sent >= w.warmup })
	if warm.failed > 0 || ctx.Err() != nil {
		ch.stop()
		return nil, 0, fmt.Errorf("%s: warm-up: %d of %d failed: %v", w.name, warm.failed, warm.attempted, warm.firstErr)
	}
	return s, time.Since(t0), nil
}
