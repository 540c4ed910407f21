package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	smt "repro"
	"repro/internal/serve"
)

// server is an HTTP server on a loopback port.
type server struct {
	url    string // the /v1/run endpoint
	srv    *http.Server
	served chan error
}

func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{url: "http://" + ln.Addr().String() + "/v1/run",
		srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, served: make(chan error, 1)}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits until Serve has returned.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// tracedHandler records a span per request, linked to the client span
// whose id the X-Request-Id header carries.
type tracedHandler struct {
	h  http.Handler
	tr *atomic.Pointer[tracer]
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseUint(r.Header.Get("X-Request-Id"), 10, 64) // no header: a root span
	sp := t.tr.Load().start("serve.handler", parent)
	t.h.ServeHTTP(w, r)
	sp.end()
}

// send posts one request and reads the whole reply, inside a client
// span whose id goes to the server in the X-Request-Id header.
func send(ctx context.Context, c *http.Client, tr *tracer, url string, body []byte) (int, []byte, uint64, error) {
	sp := tr.start("serve.client", 0)
	defer sp.end()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, sp.id, err
	}
	req.Header.Set("Content-Type", "application/json")
	if sp.id != 0 {
		req.Header.Set("X-Request-Id", strconv.FormatUint(sp.id, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, sp.id, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, sp.id, err
}

// reportServe records the serve layer's metrics: handler time from the
// handler spans, and the wait outside the handler as each request's
// client latency (by client span id) minus its handler span.
func reportServe(rep *report, tr *tracer, latency map[uint64]float64, sizes []float64, shed int) {
	var handlerMs, waitMs []float64
	for _, s := range tr.records() {
		if s.Name != "serve.handler" {
			continue
		}
		ms := float64(s.End-s.Start) / 1e6
		handlerMs = append(handlerMs, ms)
		if l, ok := latency[s.Parent]; ok {
			waitMs = append(waitMs, l-ms)
		}
	}
	rep.add("serve.handler_ms.p50", handlerMs, "server-side time per request")
	rep.set("serve.handler_ms.p90", percentile(handlerMs, 90), len(handlerMs), "server-side time per request")
	rep.set("serve.wait_ms.p90", percentile(waitMs, 90), len(waitMs), "closed-loop client latency minus handler time")
	rep.set("serve.resp_bytes", mean(sizes), len(sizes), "mean reply size")
	rep.set("serve.shed", float64(shed), len(latency), "429 replies")
}

// runResponse renders a result the way serve's /v1/run does.
func runResponse(res *smt.Result) serve.RunResponse {
	out := serve.RunResponse{Seconds: res.Seconds, Cycles: res.Cycles, ImbalancePct: res.ImbalancePct,
		Iterations: res.Iterations, Policy: res.Policy, BalancerMoves: res.BalancerMoves}
	if out.Policy == "" {
		out.Policy = "static"
	}
	for _, rr := range res.Ranks {
		out.Ranks = append(out.Ranks, serve.RankResult{CPU: rr.CPU, Core: rr.Core, Chip: rr.Chip, Priority: int(rr.Priority),
			ComputePct: rr.ComputePct, SyncPct: rr.SyncPct, CommPct: rr.CommPct, Instructions: rr.Instructions})
	}
	return out
}

// probeServe measures the serve layer: one connection sends 40 small
// distinct /v1/run jobs four times, closed loop, through serve.NewHandler
// on a Machine with a disk tier, so the first round simulates and the
// others hit the memory tier.  Replies must be 200s that agree round to
// round and, decoded, equal what an independent Machine computes for the
// same job.
func probeServe(ctx context.Context, cfg config, rep *report, dir string) error {
	m, err := smt.NewMachine(nil)
	if err != nil {
		return err
	}
	if err := m.UseDiskCache(dir); err != nil {
		return err
	}
	var tp atomic.Pointer[tracer]
	tp.Store(cfg.tr)
	srv, err := listen(tracedHandler{h: serve.NewHandler(m, serve.Config{}), tr: &tp})
	if err != nil {
		return err
	}
	defer srv.stop()
	tr := &http.Transport{MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	keys := serveKeys(cfg.seed, 0, 40)
	var bodies [][]byte
	for _, k := range keys {
		b, err := json.Marshal(serve.RunRequest{Job: k.Job.wire(), Policy: k.Policy})
		if err != nil {
			return err
		}
		bodies = append(bodies, b)
	}
	latency := map[uint64]float64{}
	first := make([][]byte, len(bodies))
	var sizes []float64
	shed := 0
	for range 4 {
		for i, b := range bodies {
			t0 := time.Now()
			status, body, id, err := send(ctx, client, cfg.tr, srv.url, b)
			latency[id] = float64(time.Since(t0).Nanoseconds()) / 1e6
			switch {
			case err != nil:
				return err
			case status == http.StatusTooManyRequests:
				shed++
			case status != http.StatusOK || (first[i] != nil && !bytes.Equal(first[i], body)):
				rep.fail("serve probe: key %d: status %d or a reply that changed", i, status)
			}
			if first[i] == nil {
				first[i] = body
			}
			sizes = append(sizes, float64(len(body)))
		}
	}
	reportServe(rep, cfg.tr, latency, sizes, shed)

	ref, err := smt.NewMachine(nil)
	if err != nil {
		return err
	}
	for i, k := range keys {
		job := k.Job.public()
		pl, err := smt.DefaultTopology().PinInOrder(len(job.Ranks))
		if err != nil {
			return err
		}
		pol, err := parsePolicy(k.Policy)
		if err != nil {
			return err
		}
		res, err := ref.RunPolicy(ctx, job, pl, pol)
		if err != nil {
			return err
		}
		var got serve.RunResponse
		if err := json.Unmarshal(first[i], &got); err != nil {
			rep.fail("serve probe: key %d: undecodable reply: %v", i, err)
			continue
		}
		gb, _ := json.Marshal(got) // plain structs always marshal
		wb, _ := json.Marshal(runResponse(res))
		if !bytes.Equal(gb, wb) {
			rep.fail("serve probe: key %d: reply differs from an independent Machine's result", i)
		}
	}
	return nil
}
