package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"

	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/obs"
)

// --- Wire types -------------------------------------------------------
//
// Every request and response body on the /v1 API is one of the structs
// below; docs/SERVICE.md documents them field by field and the
// docscheck route test cross-checks the route table against that file.

// AttrSpec declares one dataset attribute on the wire.
type AttrSpec struct {
	// Name labels the attribute; it must be non-empty.
	Name string `json:"name"`
	// Levels is the attribute's domain size; values are 0..Levels-1 and
	// Levels must be 2 to MaxLevels.
	Levels int `json:"levels"`
}

// DatasetRequest is the body of POST /v1/datasets. A null cell marks a
// missing value.
type DatasetRequest struct {
	// Name is the registry key queries refer to; it must be unique.
	Name string `json:"name"`
	// Attrs declares the schema.
	Attrs []AttrSpec `json:"attrs"`
	// Rows holds the objects, one slice of cells per object, null for a
	// missing cell. Each row must have exactly len(Attrs) cells.
	Rows [][]*int `json:"rows"`
	// MarginalsOnly skips Bayesian-network learning and models every
	// missing value by its attribute's empirical marginal.
	MarginalsOnly bool `json:"marginalsOnly,omitempty"`
}

// DatasetInfo describes a registered dataset.
type DatasetInfo struct {
	// Name is the registry key.
	Name string `json:"name"`
	// Objects and Attrs are the dataset's dimensions; Missing counts
	// missing cells and MissingRate is Missing over total cells.
	Objects     int     `json:"objects"`
	Attrs       int     `json:"attrs"`
	Missing     int     `json:"missing"`
	MissingRate float64 `json:"missingRate"`
}

// QueryRequest is the body of POST /v1/queries.
type QueryRequest struct {
	// Dataset names a registered dataset.
	Dataset string `json:"dataset"`
	// Alpha is the c-table pruning threshold; <= 0 disables pruning.
	Alpha float64 `json:"alpha,omitempty"`
	// Budget is B, the total affordable tasks (required, positive);
	// Latency is L, the maximum crowd rounds (required, positive).
	Budget  int `json:"budget"`
	Latency int `json:"latency"`
	// Strategy picks the task-selection strategy: "FBS", "UBS" or
	// "HHS"; empty selects UBS. M is the HHS early-stop parameter,
	// required positive for HHS and ignored otherwise.
	Strategy string `json:"strategy,omitempty"`
	M        int    `json:"m,omitempty"`
	// Workers lowers the daemon's per-query worker count; <= 0, or a
	// count above the daemon's, gets the daemon's.
	Workers int `json:"workers,omitempty"`
	// MaxRetries, ChargeOnPost and ReaskConflicts tune the fault-path
	// exactly as the library options of the same names.
	MaxRetries     int  `json:"maxRetries,omitempty"`
	ChargeOnPost   bool `json:"chargeOnPost,omitempty"`
	ReaskConflicts int  `json:"reaskConflicts,omitempty"`
	// NoCache disables the component probability cache for this query.
	NoCache bool `json:"noCache,omitempty"`
	// Seed seeds the query's tie-breaking RNG; 0 selects the library
	// default (seed 1). Two queries with the same dataset, options, seed
	// and answers return identical results.
	Seed int64 `json:"seed,omitempty"`
	// Trace buffers the query's JSONL trace for GET
	// /v1/queries/{id}/trace.
	Trace bool `json:"trace,omitempty"`
}

// QueryResult is the terminal payload of a finished query — the wire
// rendering of the library's core.Result.
type QueryResult struct {
	// Answers lists the result set's object indices (0-based), sorted.
	Answers []int `json:"answers"`
	// Probs maps still-undecided object indices (rendered as decimal
	// strings, JSON objects cannot key on numbers) to their final
	// satisfaction probability.
	Probs map[string]float64 `json:"probs,omitempty"`
	// TasksPosted, Rounds and BudgetSpent are the run's cost metrics.
	TasksPosted int `json:"tasksPosted"`
	Rounds      int `json:"rounds"`
	BudgetSpent int `json:"budgetSpent"`
	// Degraded reports a best-effort result (drain, outage or expiry
	// starved the run); DegradedReason says what was lost.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degradedReason,omitempty"`
}

// QueryStatus is the body of GET /v1/queries/{id} (and the immediate
// response of POST /v1/queries).
type QueryStatus struct {
	// ID is the query's handle, assigned at admission.
	ID string `json:"id"`
	// Dataset names the dataset the query runs over.
	Dataset string `json:"dataset"`
	// State is the lifecycle position: "pending", "running", "waiting",
	// "done" or "failed".
	State State `json:"state"`
	// Rounds is the crowd rounds completed so far; Undecided is the
	// conditions still open after the last round.
	Rounds    int `json:"rounds"`
	Undecided int `json:"undecided"`
	// Ledger is the query's crowd-cost account; Ledger.Conserved holds
	// after every hub operation.
	Ledger crowd.Ledger `json:"ledger"`
	// Result is set once State is "done"; Error once State is "failed".
	Result *QueryResult `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
	// TraceTruncated reports that the trace buffer hit its cap.
	TraceTruncated bool `json:"traceTruncated,omitempty"`
	// Created and Finished stamp admission and completion.
	Created  time.Time  `json:"created"`
	Finished *time.Time `json:"finished,omitempty"`
}

// ExprInfo is the machine-readable form of a task's question — what a
// marketplace bridge renders for workers and what the answer asserts a
// relation between. Kind is "x<c", "x>c" or "x>y"; the left operand is
// always object Obj's attribute Attr (0-based indices into the
// dataset). For the constant kinds the right operand is C; for "x>y"
// it is object Obj2's attribute Attr2 (and C is meaningless).
type ExprInfo struct {
	Kind  string `json:"kind"`
	Obj   int    `json:"obj"`
	Attr  int    `json:"attr"`
	Obj2  int    `json:"obj2"`
	Attr2 int    `json:"attr2"`
	C     int    `json:"c"`
}

// TaskInfo describes one open crowd task (GET /v1/tasks).
type TaskInfo struct {
	// ID is the callback handle for POST /v1/answers/{taskid}.
	ID string `json:"id"`
	// Dataset names the dataset the question is about.
	Dataset string `json:"dataset"`
	// Question is the worker-facing text; Expr is its machine-readable
	// form.
	Question string   `json:"question"`
	Expr     ExprInfo `json:"expr"`
	// Queries lists the ids of the queries sharing this task, in join
	// order.
	Queries []string `json:"queries"`
	// PostedAt stamps when the task opened; the task deadline counts
	// from here.
	PostedAt time.Time `json:"postedAt"`
}

// AnswerRequest is the body of POST /v1/answers/{taskid}.
type AnswerRequest struct {
	// Rel is the asserted relation: "<", "=" or ">".
	Rel string `json:"rel"`
}

// AnswerReceipt is the response of POST /v1/answers/{taskid}.
type AnswerReceipt struct {
	// TaskID echoes the resolved task; Queries lists the queries the
	// answer was delivered to.
	TaskID  string   `json:"taskId"`
	Queries []string `json:"queries"`
}

// HealthInfo is the body of GET /v1/healthz.
type HealthInfo struct {
	// Status is "ok" or "draining".
	Status string `json:"status"`
	// Datasets and Queries count registrations and admissions;
	// TasksOpen, TasksPosted, TasksAnswered and TasksExpired are the
	// hub's task tallies.
	Datasets      int `json:"datasets"`
	Queries       int `json:"queries"`
	TasksOpen     int `json:"tasksOpen"`
	TasksPosted   int `json:"tasksPosted"`
	TasksAnswered int `json:"tasksAnswered"`
	TasksExpired  int `json:"tasksExpired"`
}

// ErrorBody is the uniform error envelope: every non-2xx response is
// {"error":{"code":...,"message":...}}.
type ErrorBody struct {
	// Error carries the machine-readable code (the HTTP status text)
	// and the human-readable message.
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// --- Route table ------------------------------------------------------

// Route is one entry of the service's HTTP surface.
type Route struct {
	// Method and Pattern are the Go 1.22 mux pattern halves, e.g.
	// "POST" and "/v1/answers/{taskid}".
	Method  string
	Pattern string
	// Summary is the one-line description docs/SERVICE.md expands on.
	Summary string
}

// Routes returns the service's full HTTP surface — the single source of
// truth the mux is built from and the docscheck route test compares
// docs/SERVICE.md against.
func Routes() []Route {
	return []Route{
		{"POST", "/v1/datasets", "register a dataset (runs preprocessing once)"},
		{"GET", "/v1/datasets", "list registered datasets"},
		{"POST", "/v1/queries", "submit a skyline query"},
		{"GET", "/v1/queries", "list queries in admission order"},
		{"GET", "/v1/queries/{id}", "poll one query's status, ledger and result"},
		{"GET", "/v1/queries/{id}/trace", "download a finished query's JSONL trace"},
		{"GET", "/v1/tasks", "list open crowd tasks awaiting answers"},
		{"POST", "/v1/answers/{taskid}", "deliver a crowd answer callback"},
		{"GET", "/v1/healthz", "liveness, drain state and hub tallies"},
		{"GET", "/metrics", "JSON dump of the metrics registry"},
		{"GET", "/debug/pprof/", "standard net/http/pprof profiles"},
	}
}

// Handler builds the service's HTTP handler from the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handlers := map[string]http.HandlerFunc{
		"POST /v1/datasets":          s.handleRegisterDataset,
		"GET /v1/datasets":           s.handleListDatasets,
		"POST /v1/queries":           s.handleSubmitQuery,
		"GET /v1/queries":            s.handleListQueries,
		"GET /v1/queries/{id}":       s.handleGetQuery,
		"GET /v1/queries/{id}/trace": s.handleGetTrace,
		"GET /v1/tasks":              s.handleListTasks,
		"POST /v1/answers/{taskid}":  s.handleAnswer,
		"GET /v1/healthz":            s.handleHealth,
		"GET /metrics":               obs.MetricsHandler(s.reg),
		"GET /debug/pprof/":          pprof.Index,
	}
	for _, r := range Routes() {
		h, ok := handlers[r.Method+" "+r.Pattern]
		if !ok {
			panic(fmt.Sprintf("service: route %s %s has no handler", r.Method, r.Pattern))
		}
		mux.HandleFunc(r.Method+" "+r.Pattern, h)
	}
	return mux
}

// --- Handlers ---------------------------------------------------------

// writeJSON encodes v with status code; encode errors after the header
// is committed are unrecoverable and dropped deliberately.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is already on the wire; nothing to salvage.
		_ = err
	}
}

// writeError emits the uniform error envelope.
func writeError(w http.ResponseWriter, code int, msg string) {
	var body ErrorBody
	body.Error.Code = http.StatusText(code)
	body.Error.Message = msg
	writeJSON(w, code, body)
}

// errorCode maps a service error to its HTTP status.
func errorCode(err error) int {
	if err == ErrDraining {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// maxBodyBytes caps every request body the /v1 API reads: 16 MiB, about
// 60× the registration body of a 10,000-row NBA dataset (273 KB), so a
// client cannot make a handler buffer an unbounded body.
const maxBodyBytes = 16 << 20

// decodeBody strictly decodes a JSON request body of at most
// maxBodyBytes into v. On failure it writes the error envelope — 413
// for an oversize body, 400 for any other decode error — and returns
// false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeError(w, code, fmt.Sprintf("decode body: %v", err))
	return false
}

// handleRegisterDataset serves POST /v1/datasets.
func (s *Server) handleRegisterDataset(w http.ResponseWriter, r *http.Request) {
	var req DatasetRequest
	if !decodeBody(w, r, &req) {
		return
	}
	info, err := s.RegisterDataset(req)
	if err != nil {
		code := errorCode(err)
		if code == http.StatusBadRequest && s.hasDataset(req.Name) {
			code = http.StatusConflict
		}
		writeError(w, code, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// hasDataset reports whether name is registered.
func (s *Server) hasDataset(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.datasets[name]
	return ok
}

// handleListDatasets serves GET /v1/datasets, ascending by name.
func (s *Server) handleListDatasets(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	names := make([]string, 0, len(s.datasets))
	for name := range s.datasets {
		names = append(names, name)
	}
	sort.Strings(names)
	infos := make([]DatasetInfo, 0, len(names))
	for _, name := range names {
		infos = append(infos, s.datasets[name].info())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, infos)
}

// handleSubmitQuery serves POST /v1/queries.
func (s *Server) handleSubmitQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	st, err := s.SubmitQuery(req)
	if err != nil {
		writeError(w, errorCode(err), err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// handleListQueries serves GET /v1/queries.
func (s *Server) handleListQueries(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	qs := make([]*query, 0, len(s.order))
	for _, id := range s.order {
		qs = append(qs, s.queries[id])
	}
	s.mu.Unlock()
	out := make([]QueryStatus, len(qs))
	for i, q := range qs {
		out[i] = s.status(q)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleGetQuery serves GET /v1/queries/{id}.
func (s *Server) handleGetQuery(w http.ResponseWriter, r *http.Request) {
	q := s.lookupQuery(r.PathValue("id"))
	if q == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no query %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, s.status(q))
}

// handleGetTrace serves GET /v1/queries/{id}/trace: the buffered JSONL
// trace of a finished traced query.
func (s *Server) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	q := s.lookupQuery(r.PathValue("id"))
	if q == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no query %q", r.PathValue("id")))
		return
	}
	if q.trace == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("query %q was not traced (submit with \"trace\": true)", q.id))
		return
	}
	state, _, _ := q.snapshot()
	if state != StateDone && state != StateFailed {
		writeError(w, http.StatusConflict, fmt.Sprintf("query %q is %s; the trace is available once it finishes", q.id, state))
		return
	}
	// The terminal state was observed under q.mu, which orders this read
	// after the runner's final trace write and flush.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(q.trace.Bytes()); err != nil {
		// Client went away mid-body; nothing to salvage.
		_ = err
	}
}

// lookupQuery fetches a query by id.
func (s *Server) lookupQuery(id string) *query {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queries[id]
}

// handleListTasks serves GET /v1/tasks.
func (s *Server) handleListTasks(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.hub.openTasks())
}

// handleAnswer serves POST /v1/answers/{taskid}: the crowd answer
// callback that drives the event loop.
func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	var req AnswerRequest
	if !decodeBody(w, r, &req) {
		return
	}
	rel, err := parseRel(req.Rel)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	taskID := r.PathValue("taskid")
	ids, err := s.hub.resolve(taskID, rel)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, AnswerReceipt{TaskID: taskID, Queries: ids})
}

// exprInfo renders an expression on the wire.
func exprInfo(e ctable.Expr) ExprInfo {
	info := ExprInfo{Obj: e.X.Obj, Attr: e.X.Attr}
	switch e.Kind {
	case ctable.VarLTConst:
		info.Kind = "x<c"
		info.C = e.C
	case ctable.VarGTConst:
		info.Kind = "x>c"
		info.C = e.C
	case ctable.VarGTVar:
		info.Kind = "x>y"
		info.Obj2 = e.Y.Obj
		info.Attr2 = e.Y.Attr
	}
	return info
}

// parseRel maps the wire relation onto ctable's constants.
func parseRel(s string) (ctable.Rel, error) {
	switch s {
	case "<":
		return ctable.LT, nil
	case "=":
		return ctable.EQ, nil
	case ">":
		return ctable.GT, nil
	default:
		return 0, fmt.Errorf("unknown rel %q (want \"<\", \"=\" or \">\")", s)
	}
}

// handleHealth serves GET /v1/healthz.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	posted, answered, expired, open := s.hub.stats()
	s.mu.Lock()
	info := HealthInfo{
		Status:        "ok",
		Datasets:      len(s.datasets),
		Queries:       len(s.queries),
		TasksOpen:     open,
		TasksPosted:   posted,
		TasksAnswered: answered,
		TasksExpired:  expired,
	}
	if s.draining {
		info.Status = "draining"
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, info)
}

// status renders a query's full wire status.
func (s *Server) status(q *query) QueryStatus {
	led := s.hub.ledgerOf(q)
	q.mu.Lock()
	defer q.mu.Unlock()
	st := QueryStatus{
		ID:             q.id,
		Dataset:        q.ds.name,
		State:          q.state,
		Rounds:         q.roundsSeen,
		Undecided:      q.lastUndecided,
		Ledger:         led,
		TraceTruncated: q.traceTrunc,
		Created:        q.created,
	}
	if !q.finished.IsZero() {
		f := q.finished
		st.Finished = &f
	}
	if q.err != nil {
		st.Error = q.err.Error()
	}
	if q.result != nil {
		res := &QueryResult{
			Answers:        append([]int{}, q.result.Answers...),
			TasksPosted:    q.result.TasksPosted,
			Rounds:         q.result.Rounds,
			BudgetSpent:    q.result.BudgetSpent,
			Degraded:       q.result.Degraded,
			DegradedReason: q.result.DegradedReason,
		}
		sort.Ints(res.Answers)
		if len(q.result.Probs) > 0 {
			res.Probs = make(map[string]float64, len(q.result.Probs))
			for obj, p := range q.result.Probs {
				res.Probs[fmt.Sprintf("%d", obj)] = p
			}
		}
		st.Result = res
	}
	return st
}
