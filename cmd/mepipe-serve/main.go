// Command mepipe-serve runs the MEPipe planning service: the strategy
// search, the simulator, the static certifier and the trace exporter
// behind a versioned JSON HTTP API with request coalescing and a
// content-addressed response cache. See docs/SERVE.md.
//
// Examples:
//
//	mepipe-serve -addr :8080
//	mepipe-serve -addr 127.0.0.1:9000 -cache 1024 -timeout 2m
//	mepipe-serve -selfcheck
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	v1 "mepipe/api/v1"
	"mepipe/internal/serve"
)

// The server's connection timeouts: a request's header must arrive within
// readHeaderTimeout and the whole request within readTimeout, and a
// keep-alive connection closes after idleTimeout without one. There is no
// write timeout: a cold sweep may compute for long, and -timeout
// (serve.Options.Timeout) already bounds the wait for a computation.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
)

// newServer returns the http.Server that serves h on addr, with the
// connection timeouts above.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		cacheSize = flag.Int("cache", serve.DefaultCacheSize, "response cache capacity in entries (negative disables)")
		timeout   = flag.Duration("timeout", 0, "per-request wait bound (0 = none); timed-out waits report 499")
		selfcheck = flag.Bool("selfcheck", false, "boot on an ephemeral port, exercise the cached search path, and exit")
	)
	flag.Parse()

	if *selfcheck {
		fatal(runSelfcheck(*cacheSize, *timeout))
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	s := serve.New(serve.Options{CacheSize: *cacheSize, Timeout: *timeout, BaseContext: ctx})
	srv := newServer(*addr, s.Handler())

	errc := make(chan error, 1)
	go func() {
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			errc <- err
			return
		}
		fmt.Printf("mepipe-serve: listening on %s (cache %d entries)\n", ln.Addr(), *cacheSize)
		errc <- srv.Serve(ln)
	}()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
		fmt.Println("mepipe-serve: shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		fatal(srv.Shutdown(sctx))
	}
}

// runSelfcheck boots the service in-process on an ephemeral port and
// proves the full request path: a search answers 200 and certified, the
// identical repeat is served from the cache, and the stats endpoint
// reflects both. It is the CI smoke test (`make serve-smoke`).
func runSelfcheck(cacheSize int, timeout time.Duration) error {
	s := serve.New(serve.Options{CacheSize: cacheSize, Timeout: timeout})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := newServer("", s.Handler())
	go srv.Serve(ln) //nolint:errcheck // torn down with Close below
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	doc, err := json.Marshal(v1.PlanRequest{
		API:      v1.Version,
		System:   "mepipe",
		Model:    v1.ModelSpec{Preset: "7b"},
		Cluster:  v1.ClusterSpec{Preset: "rtx4090", Servers: 1},
		Training: v1.TrainingSpec{GlobalBatch: 8},
		Space:    &v1.SpaceSpec{PP: []int{8}, CP: []int{1}, SPP: []int{4}, VP: []int{1, 2}, MinDP: 1},
	})
	if err != nil {
		return err
	}

	var res v1.SearchResponse
	outcome, err := post(base+"/v1/search", doc, &res)
	if err != nil {
		return err
	}
	if outcome != "miss" {
		return fmt.Errorf("selfcheck: first search served %q, want miss", outcome)
	}
	if !res.Certified || !res.Found || res.Best == nil {
		return fmt.Errorf("selfcheck: search found no certified candidate (certified=%v found=%v)", res.Certified, res.Found)
	}
	var res2 v1.SearchResponse
	outcome, err = post(base+"/v1/search", doc, &res2)
	if err != nil {
		return err
	}
	if outcome != "hit" {
		return fmt.Errorf("selfcheck: repeated search served %q, want hit", outcome)
	}
	if res2.Key != res.Key {
		return fmt.Errorf("selfcheck: cached key %s differs from computed %s", res2.Key, res.Key)
	}

	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var stats v1.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return err
	}
	ep := stats.Endpoints["/v1/search"]
	if ep.Requests != 2 || ep.Hits != 1 || ep.Misses != 1 {
		return fmt.Errorf("selfcheck: stats requests=%d hits=%d misses=%d, want 2/1/1", ep.Requests, ep.Hits, ep.Misses)
	}

	fmt.Printf("selfcheck ok: key %s, best pp=%d spp=%d dp=%d at %.1f ms/iter, cache hit on repeat\n",
		res.Key[:12], res.Best.Parallel.PP, res.Best.Parallel.SPP, res.Best.Parallel.DP, res.Best.IterTimeS*1e3)
	return nil
}

// post sends one JSON document and decodes the 200 response into out,
// returning the X-Mepipe-Cache header value.
func post(url string, doc []byte, out any) (string, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(doc))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("POST %s: %s: %s", url, resp.Status, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		return "", err
	}
	return resp.Header.Get("X-Mepipe-Cache"), nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mepipe-serve:", err)
		os.Exit(1)
	}
}
