package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/si"
)

// Serving options: sisrv's and sirouter's defaults — plan cache 4096,
// mmap auto, the 1000-match cap, a 30 s request deadline, no background
// compaction. The router's health poll runs once at start and then
// hourly, so no timer fires during a run; with one replica per group
// it never hedges.
const (
	planCache     = 4096
	reqTimeout    = 30 * time.Second
	routerHealthy = time.Hour
)

// nodeProc is one in-process sisrv: an open index behind sisrv's
// handler on a loopback listener.
type nodeProc struct {
	dir  string
	ix   *si.Index
	srv  *http.Server
	done chan error
	url  string
}

// deployment is the running system one pass talks to.
type deployment struct {
	nodes  []*nodeProc
	router *cluster.Router
	rsrv   *http.Server
	rdone  chan error
	front  string // base URL the client sends to
	client *http.Client
	tr     *tracer
	setupS float64
	bytes  int64    // on-disk B+Tree bytes over all nodes after set-up
	bases  []uint32 // global tid of each node's first tree
}

// setup builds the workload's index(es) from in.corpus under dir,
// opens and serves them (behind sirouter when in.groups > 1), and
// sends the warm-up queries. The wall time of all of it is setupS.
func setup(dir string, in *inputs, tr *tracer) (*deployment, error) {
	start := time.Now()
	d := &deployment{client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
	}}}
	var groups [][]string
	for g, part := range in.parts {
		nd := filepath.Join(dir, fmt.Sprintf("node-%d", g))
		info, err := si.Build(nd, part, si.BuildOptions{MSS: 3, Coding: si.RootSplit})
		if err != nil {
			d.close()
			return nil, err
		}
		d.bytes += info.IndexBytes
		n, err := startNode(nd, tr)
		if err != nil {
			d.close()
			return nil, err
		}
		d.nodes = append(d.nodes, n)
		d.bases = append(d.bases, uint32(in.bases[g]))
		groups = append(groups, []string{n.url})
	}
	d.front = d.nodes[0].url
	if in.groups > 1 {
		cfg := cluster.Config{Groups: groups, Timeout: reqTimeout, HealthEvery: routerHealthy}
		if tr != nil {
			cfg.Client = &http.Client{Transport: tr.transport(&http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second})}
		}
		rt, err := cluster.New(cfg)
		if err != nil {
			d.close()
			return nil, err
		}
		d.router = rt
		var h http.Handler = rt
		if tr != nil {
			h = tr.handler("router", h, false)
		}
		d.rsrv, d.rdone, d.front, err = serve(h)
		if err != nil {
			d.close()
			return nil, err
		}
	}
	for _, qi := range in.warm {
		if _, _, err := d.get(in.path, in.queries[qi], in.limit, ""); err != nil {
			d.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	d.setupS = time.Since(start).Seconds()
	return d, nil
}

// startNode opens the index in dir with sisrv's defaults and serves it.
func startNode(dir string, tr *tracer) (*nodeProc, error) {
	ix, err := si.OpenWith(dir, si.OpenOptions{PlanCacheSize: planCache})
	if err != nil {
		return nil, err
	}
	var h http.Handler = server.New(ix, server.Config{Timeout: reqTimeout, Dir: dir})
	if tr != nil {
		h = tr.handler("node", h, true)
	}
	srv, done, u, err := serve(h)
	if err != nil {
		ix.Close()
		return nil, err
	}
	return &nodeProc{dir: dir, ix: ix, srv: srv, done: done, url: u}, nil
}

// stop shuts the node's listener and connections down, waits for the
// serve loop to return, then closes the index.
func (n *nodeProc) stop() error {
	err := n.srv.Close()
	if serr := <-n.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	if cerr := n.ix.Close(); err == nil {
		err = cerr
	}
	return err
}

// serve starts an HTTP server for h on a loopback port.
func serve(h http.Handler) (*http.Server, chan error, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return srv, done, "http://" + ln.Addr().String(), nil
}

// close stops the router and every node; safe on a partial deployment.
func (d *deployment) close() error {
	var err error
	keep := func(e error) {
		if err == nil && e != nil {
			err = e
		}
	}
	if d.rsrv != nil {
		keep(d.rsrv.Close())
		if serr := <-d.rdone; !errors.Is(serr, http.ErrServerClosed) {
			keep(serr)
		}
		d.rsrv = nil
	}
	if d.router != nil {
		d.router.Close()
		d.router = nil
	}
	for _, n := range d.nodes {
		keep(n.stop())
	}
	d.nodes = nil
	d.client.CloseIdleConnections()
	return err
}

// get sends one GET query and returns the status and the full body.
func (d *deployment) get(path, src string, limit int, rid string) (int, []byte, error) {
	v := url.Values{"q": {src}}
	if limit > 0 {
		v.Set("limit", fmt.Sprint(limit))
	}
	return d.do(http.MethodGet, d.front+path+"?"+v.Encode(), nil, rid)
}

// do sends one request to the front and reads the whole response.
func (d *deployment) do(method, u string, body io.Reader, rid string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), method, u, body)
	if err != nil {
		return 0, nil, err
	}
	if rid != "" {
		req.Header.Set(server.RequestIDHeader, rid)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
