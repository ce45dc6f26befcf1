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
	"time"

	"bayescrowd/internal/dataset"
	"bayescrowd/internal/service"
)

// api is the benchmark's HTTP client. One transport, capped at maxConns
// connections, carries every client request and every answer callback.
type api struct {
	tr   *http.Transport
	hc   *http.Client
	base string
}

// newAPI returns a client of the daemon at base ("http://host:port").
func newAPI(base string) *api {
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}
	return &api{tr: tr, hc: &http.Client{Transport: tr, Timeout: time.Minute}, base: base}
}

// call sends one request and decodes the JSON reply into out (when
// non-nil). in is JSON-encoded unless it is already a []byte. Any status
// other than want is an error carrying the daemon's error envelope.
func (a *api) call(method, path string, in, out any, want int) error {
	var body io.Reader
	if in != nil {
		b, ok := in.([]byte)
		if !ok {
			var err error
			if b, err = json.Marshal(in); err != nil {
				return fmt.Errorf("%s %s: %w", method, path, err)
			}
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, a.base+path, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return nil
}

// daemon is bayescrowdd started in-process on a loopback listener with
// the benchmark's crowd attached.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	sink   *crowdSink
	api    *api
}

// startDaemon starts the daemon (service.New + Handler) with the
// workload-independent service settings and a crowd answering from
// truth after delay(question).
func startDaemon(truth *dataset.Dataset, delay func(string) time.Duration, rec *recorder) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	a := newAPI("http://" + ln.Addr().String())
	sink := newSink(a, truth, delay, rec)
	srv := service.New(service.Config{
		Workers:       daemonWorkers,
		MaxConcurrent: maxConcurrent,
		TaskDeadline:  taskDeadline,
		Sink:          sink,
	})
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		sink:   sink,
		api:    a,
	}
	//lint:ignore goroutine the HTTP accept loop; stop shuts the server down and receives its exit on served
	go func() { d.served <- d.hs.Serve(ln) }()
	sink.start()
	srv.Start()
	return d, nil
}

// stop drains the daemon, stops the crowd, shuts the HTTP server down
// and waits for all of it.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.srv.Drain(ctx)
	d.sink.stopSink()
	if serr := d.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.api.tr.CloseIdleConnections()
	if err != nil {
		return fmt.Errorf("stop daemon: %w", err)
	}
	return nil
}

// metricsDump is the part of GET /metrics the traced pass reads.
type metricsDump struct {
	Counters map[string]int64 `json:"counters"`
}

// counters reads the daemon's counters.
func (d *daemon) counters() (metricsDump, error) {
	var m metricsDump
	err := d.api.call(http.MethodGet, "/metrics", nil, &m, http.StatusOK)
	return m, err
}
