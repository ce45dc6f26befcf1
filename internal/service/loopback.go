package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"bayescrowd/internal/crowd"
)

// Loopback is a TaskSink that closes the service's crowd loop against a
// simulated platform: every task the hub opens is handed to the wrapped
// crowd.Platform (crowd.Simulated for a fault-free crowd,
// crowd.Unreliable for the soak's hostile one) and each answer is
// delivered back to the daemon as a POST /v1/answers/{taskid} callback
// — the same wire path a real marketplace bridge would use, so the
// daemon's event loop is exercised end to end even in a self-contained
// process.
//
// One worker goroutine serializes the platform calls (Simulated and
// Unreliable share an RNG and are not safe for concurrent Post), so a
// Loopback behaves like one marketplace connection. Tasks the platform
// drops are simply never answered; the service's task deadline expires
// them.
type Loopback struct {
	platform crowd.Platform
	endpoint string
	client   *http.Client

	queue chan PostedTask
	stop  chan struct{}
	wg    sync.WaitGroup

	mu       sync.Mutex
	answered int   // guarded by mu
	dropped  int   // guarded by mu
	failed   int   // guarded by mu
	lastErr  error // guarded by mu
}

// NewLoopback wires a Loopback to the simulated platform and the
// daemon's own base URL (e.g. "http://127.0.0.1:8080"). Call Start
// before the first task and Stop when the daemon drains.
func NewLoopback(platform crowd.Platform, endpoint string) *Loopback {
	return &Loopback{
		platform: platform,
		endpoint: endpoint,
		client:   &http.Client{},
		queue:    make(chan PostedTask, 1024),
		stop:     make(chan struct{}),
	}
}

// SetEndpoint replaces the daemon base URL. The daemon uses it to
// break the bootstrap cycle: the Loopback must exist before the server
// config that references it, but the bound address is known only after
// the listener is up. Call it before Start.
func (l *Loopback) SetEndpoint(endpoint string) { l.endpoint = endpoint }

// Start launches the answer worker.
func (l *Loopback) Start() {
	l.wg.Add(1)
	//lint:ignore goroutine the single answer worker is the loopback's marketplace connection; Stop joins it via the WaitGroup
	go l.run()
}

// Stop ends the worker after the queued tasks drain and waits for it.
func (l *Loopback) Stop() {
	close(l.stop)
	l.wg.Wait()
}

// Notify implements TaskSink: freshly opened tasks enqueue for the
// worker. A full queue drops the overflow — the service's deadline
// machinery reclaims those tasks — rather than blocking a query
// goroutine inside the hub's notify path.
func (l *Loopback) Notify(tasks []PostedTask) {
	for _, t := range tasks {
		select {
		case l.queue <- t:
		default:
			l.mu.Lock()
			l.dropped++
			l.mu.Unlock()
		}
	}
}

// Stats reports how many answers were delivered, how many tasks the
// platform or the queue dropped, how many callbacks failed, and the
// last callback error.
func (l *Loopback) Stats() (answered, dropped, failed int, lastErr error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.answered, l.dropped, l.failed, l.lastErr
}

// run is the worker loop: drain the queue, answer through the platform,
// call back. On stop it finishes the already-queued tasks first so a
// drain sees every answer that was going to arrive.
func (l *Loopback) run() {
	defer l.wg.Done()
	for {
		select {
		case t := <-l.queue:
			l.answer(t)
		case <-l.stop:
			for {
				select {
				case t := <-l.queue:
					l.answer(t)
				default:
					return
				}
			}
		}
	}
}

// answer runs one task through the platform and posts each returned
// answer to the daemon. Platform errors behave like an outage: the
// arrived answers are still delivered, the rest of the batch is left to
// expire.
func (l *Loopback) answer(t PostedTask) {
	answers, perr := l.platform.Post([]crowd.Task{t.Task})
	if perr != nil && len(answers) == 0 {
		l.mu.Lock()
		l.dropped++
		l.mu.Unlock()
		return
	}
	for _, a := range answers {
		if err := l.deliver(t.ID, a); err != nil {
			l.mu.Lock()
			l.failed++
			l.lastErr = err
			l.mu.Unlock()
			continue
		}
		l.mu.Lock()
		l.answered++
		l.mu.Unlock()
	}
	if len(answers) == 0 {
		// The platform ate the task (a fault-injected drop).
		l.mu.Lock()
		l.dropped++
		l.mu.Unlock()
	}
}

// deliver posts one answer callback. It reads the receipt to the end
// before closing it, so the client reuses its connection.
func (l *Loopback) deliver(taskID string, a crowd.Answer) (err error) {
	body, err := json.Marshal(AnswerRequest{Rel: a.Rel.String()})
	if err != nil {
		return err
	}
	resp, err := l.client.Post(
		l.endpoint+"/v1/answers/"+taskID, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if resp.StatusCode != http.StatusOK {
		msg, rerr := io.ReadAll(io.LimitReader(resp.Body, 512))
		if rerr != nil {
			msg = []byte(fmt.Sprintf("(unreadable body: %v)", rerr))
		}
		return fmt.Errorf("answer callback for %s: status %d: %s", taskID, resp.StatusCode, msg)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}
