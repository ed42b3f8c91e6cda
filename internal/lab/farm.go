package lab

// The distributed experiment farm: a coordinator leases the cells of one
// sweep to workers over a small HTTP work-claim protocol and tracks
// completion; workers expand the same spec, execute cells with the
// ordinary session runner and record into a shared content-addressed
// archive. The claim store is opaque to what a cell is: it holds the
// spec document it serves and one label per cell, and workers map a
// claimed index back to a run through their own expansion of the spec.
// The archive's dedupe is what makes the whole control plane forgiving:
// a worker that dies after archiving but before reporting, a cell
// reissued on lease expiry, or a whole farm restarted over the same
// archive all converge on exactly one record per cell — retries are
// idempotent because a cell's archive id is a pure function of its
// configuration. See DESIGN.md §13.
//
// Protocol (JSON over HTTP, all state on the coordinator):
//
//	GET  /spec      → the spec document, verbatim — what workers expand
//	POST /claim     {"worker":W}           → 200 {"cell":C,"lease":L,"ttl_ms":T}
//	                                       | 204 (nothing claimable now; retry)
//	                                       | 410 (farm complete; worker exits)
//	POST /renew     {"lease":L}            → 200 | 410 (lease no longer valid)
//	POST /complete  {"lease":L,"run_id":R} → 200 | 410
//	POST /fail      {"lease":L,"error":E}  → 200 | 410
//	GET  /status    → FarmStatus
//
// Lease semantics: a claim grants an exclusive lease for TTL; Renew
// extends it. A cell whose lease expires returns to the pending pool and
// is reissued to the next claimer with a fresh lease id — the old lease
// is dead, and any late Complete/Fail on it is answered 410 and ignored
// (the reissued execution owns the cell now; if the late worker already
// archived the run, dedupe makes the reissue a cheap no-op rerun).
// Fail marks a cell permanently failed (a config the runner rejects
// would otherwise bounce between workers forever); a farm with failed
// cells finishes "complete" but unsuccessful.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// RepSeed derives the master seed of repetition rep of a base seed.
// Repetition 0 is the base seed itself, so reps=1 farms and sweeps are
// bit- and id-identical to pre-repetition ones; higher repetitions shift
// into a disjoint high range that the small hand-picked seeds of sweep
// specs never collide with. The derivation is part of every repeated
// cell's identity — changing it would re-key archived repetition runs.
func RepSeed(seed int64, rep int) int64 {
	if rep <= 0 {
		return seed
	}
	return seed + int64(rep)<<32
}

// Cell is one unit of farm work: its index in the spec's expansion and a
// label for logs and failure reports.
type Cell struct {
	Index int    `json:"index"`
	Label string `json:"label"`
}

// cellPhase is a cell's lifecycle position in the claim store.
type cellPhase int

const (
	cellPending cellPhase = iota
	cellLeased
	cellDone
	cellFailed
)

// cellSlot is the coordinator-side state of one cell.
type cellSlot struct {
	phase   cellPhase
	lease   string
	worker  string
	expiry  time.Time
	runID   string
	failure string
	// reissues counts how many times an expired lease sent this cell
	// back to the pending pool.
	reissues int
}

// Farm is the coordinator's claim store: pure in-memory state machine,
// no I/O. All methods are safe for concurrent use. The clock is
// injectable so lease expiry is unit-testable without sleeping.
type Farm struct {
	mu    sync.Mutex
	spec  []byte
	cells []Cell
	slots []cellSlot
	ttl   time.Duration
	now   func() time.Time
	seq   int
}

// NewFarm builds a claim store over one cell per label, serving spec at
// /spec, with the given lease TTL (<= 0 defaults to 30s). A spec larger
// than a worker will read is refused here, before any worker could fail
// on it as truncated JSON.
func NewFarm(spec []byte, labels []string, ttl time.Duration) (*Farm, error) {
	if len(labels) == 0 {
		return nil, fmt.Errorf("lab: farm needs at least one cell")
	}
	if len(spec) > maxFarmBody {
		return nil, fmt.Errorf("lab: farm spec is %d bytes; workers read at most %d", len(spec), maxFarmBody)
	}
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	cells := make([]Cell, len(labels))
	for i, l := range labels {
		cells[i] = Cell{Index: i, Label: l}
	}
	return &Farm{
		spec:  spec,
		cells: cells,
		slots: make([]cellSlot, len(cells)),
		ttl:   ttl,
		now:   time.Now,
	}, nil
}

// Spec returns the spec document the farm serves.
func (f *Farm) Spec() []byte { return f.spec }

// ResumeFromArchive marks done every cell whose run the archive already
// holds, and returns how many it marked. key reports the archive key
// inputs cell i's worker records — its canonical config JSON, scenario
// digest and seed — or ok=false for a cell no worker could record. A
// record counts as the cell only when its Config and Scenario match those
// exactly, whatever code version produced it;
// matching protocol, network, seed, and size alone would accept a run of
// another file size, deadline, dynamics, or engine. This is the whole
// resume story: re-running a coordinator over the same archive re-serves
// only the missing cells, and even a stale worker re-executing a done
// cell merely dedupes.
func (f *Farm) ResumeFromArchive(a *Archive, key func(i int) (config []byte, scenario string, seed int64, ok bool)) (int, error) {
	metas, err := a.List()
	if err != nil {
		return 0, err
	}
	// Key with an empty version: the content address minus the code
	// version, with the config compacted as the archive's own key does.
	have := make(map[string]string, len(metas))
	for _, m := range metas {
		have[Key(m.Config, m.Scenario, m.Seed, "")] = m.ID
	}
	want := make([]string, len(f.cells))
	for i := range f.cells {
		if config, scenario, seed, ok := key(i); ok {
			want[i] = Key(config, scenario, seed, "")
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for i := range f.cells {
		if f.slots[i].phase == cellDone {
			continue
		}
		if id, ok := have[want[i]]; ok {
			f.slots[i] = cellSlot{phase: cellDone, runID: id}
			n++
		}
	}
	return n, nil
}

// ClaimVerdict is the outcome of a claim attempt.
type ClaimVerdict int

const (
	// ClaimGranted: the returned cell is leased to the caller.
	ClaimGranted ClaimVerdict = iota
	// ClaimWait: every remaining cell is currently leased; retry later.
	ClaimWait
	// ClaimDone: no cell will ever become claimable again.
	ClaimDone
)

// Claim hands the worker the first claimable cell: pending ones first,
// then any leased cell whose lease has expired (reissued under a fresh
// lease; the previous lease dies).
func (f *Farm) Claim(worker string) (Cell, string, ClaimVerdict) {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.now()
	claimable, open := -1, false
	for i := range f.slots {
		switch f.slots[i].phase {
		case cellPending:
			if claimable < 0 {
				claimable = i
			}
			open = true
		case cellLeased:
			if now.After(f.slots[i].expiry) {
				if claimable < 0 {
					claimable = i
					f.slots[i].reissues++
				}
			}
			open = true
		}
	}
	if claimable < 0 {
		if open {
			return Cell{}, "", ClaimWait
		}
		return Cell{}, "", ClaimDone
	}
	f.seq++
	lease := fmt.Sprintf("%s-%d-%d", worker, claimable, f.seq)
	re := f.slots[claimable].reissues
	f.slots[claimable] = cellSlot{
		phase:    cellLeased,
		lease:    lease,
		worker:   worker,
		expiry:   now.Add(f.ttl),
		reissues: re,
	}
	return f.cells[claimable], lease, ClaimGranted
}

// live returns the slot of a live lease, or nil when the lease is
// unknown, settled, or expired. An expired lease is dead even before its
// cell is reissued: the cell is claimable by anyone, so the holder has
// already lost exclusivity. The caller holds f.mu.
func (f *Farm) live(lease string) *cellSlot {
	for i := range f.slots {
		if s := &f.slots[i]; s.phase == cellLeased && s.lease == lease && !f.now().After(s.expiry) {
			return s
		}
	}
	return nil
}

// Renew extends a live lease by one TTL; false means the lease is gone
// (the worker must abandon the cell — it may already be reissued).
func (f *Farm) Renew(lease string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.live(lease)
	if s != nil {
		s.expiry = f.now().Add(f.ttl)
	}
	return s != nil
}

// Complete settles a leased cell as done, recording the archive id the
// worker stored the run under. False means the lease is gone; the worker
// has nothing left to do either way (its archive write stands and
// dedupes any reissue).
func (f *Farm) Complete(lease, runID string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.live(lease)
	if s != nil {
		s.phase, s.runID = cellDone, runID
	}
	return s != nil
}

// Fail settles a leased cell as permanently failed — for runs the
// session runner rejects deterministically, where reissue would loop
// forever. False means the lease is gone.
func (f *Farm) Fail(lease, reason string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.live(lease)
	if s != nil {
		s.phase, s.failure = cellFailed, reason
	}
	return s != nil
}

// FarmStatus is a progress snapshot.
type FarmStatus struct {
	Total    int `json:"total"`
	Done     int `json:"done"`
	Leased   int `json:"leased"`
	Pending  int `json:"pending"`
	Failed   int `json:"failed"`
	Reissues int `json:"reissues"`
	// Workers maps worker names to completed-cell counts.
	Workers map[string]int `json:"workers,omitempty"`
	// Failures lists failed cells as "label: reason".
	Failures []string `json:"failures,omitempty"`
}

// Complete reports whether no cell remains claimable or in flight.
func (s FarmStatus) Complete() bool { return s.Done+s.Failed == s.Total }

// Status snapshots progress. Leased cells past expiry count as pending
// (they are claimable right now).
func (f *Farm) Status() FarmStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.now()
	st := FarmStatus{Total: len(f.cells), Workers: map[string]int{}}
	for i := range f.slots {
		s := &f.slots[i]
		st.Reissues += s.reissues
		switch s.phase {
		case cellPending:
			st.Pending++
		case cellLeased:
			if now.After(s.expiry) {
				st.Pending++
			} else {
				st.Leased++
			}
		case cellDone:
			st.Done++
			if s.worker != "" {
				st.Workers[s.worker]++
			}
		case cellFailed:
			st.Failed++
			st.Failures = append(st.Failures, f.cells[i].Label+": "+s.failure)
		}
	}
	sort.Strings(st.Failures)
	return st
}

// RunIDs returns the archive ids of completed cells, sorted — the set
// the farm's acceptance check compares against the archive listing.
func (f *Farm) RunIDs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for i := range f.slots {
		if f.slots[i].phase == cellDone && f.slots[i].runID != "" {
			out = append(out, f.slots[i].runID)
		}
	}
	sort.Strings(out)
	return out
}

// FarmServer serves the claim protocol over HTTP.
type FarmServer struct {
	Farm *Farm
}

type claimRequest struct {
	Worker string `json:"worker"`
}

type claimResponse struct {
	Cell  Cell   `json:"cell"`
	Lease string `json:"lease"`
	TTLms int64  `json:"ttl_ms"`
}

type leaseRequest struct {
	Lease string `json:"lease"`
	RunID string `json:"run_id,omitempty"`
	Error string `json:"error,omitempty"`
}

// maxFarmBody bounds every farm JSON body read, request or response, so a
// misbehaving peer cannot make the other side read without limit.
const maxFarmBody = 1 << 20

// decodeBody decodes one JSON value from at most maxFarmBody bytes of r; a
// longer body fails as truncated JSON.
func decodeBody(r io.Reader, v any) error {
	return json.NewDecoder(io.LimitReader(r, maxFarmBody)).Decode(v)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if err := decodeBody(r.Body, v); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func (s *FarmServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/spec":
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(s.Farm.Spec())
	case "/status":
		writeJSON(w, s.Farm.Status())
	case "/claim":
		var req claimRequest
		if !readJSON(w, r, &req) {
			return
		}
		if req.Worker == "" {
			http.Error(w, "claim without worker name", http.StatusBadRequest)
			return
		}
		cell, lease, verdict := s.Farm.Claim(req.Worker)
		switch verdict {
		case ClaimGranted:
			writeJSON(w, claimResponse{Cell: cell, Lease: lease, TTLms: s.Farm.ttl.Milliseconds()})
		case ClaimWait:
			w.WriteHeader(http.StatusNoContent)
		case ClaimDone:
			w.WriteHeader(http.StatusGone)
		}
	case "/renew", "/complete", "/fail":
		var req leaseRequest
		if !readJSON(w, r, &req) {
			return
		}
		var live bool
		switch r.URL.Path {
		case "/renew":
			live = s.Farm.Renew(req.Lease)
		case "/complete":
			live = s.Farm.Complete(req.Lease, req.RunID)
		default:
			live = s.Farm.Fail(req.Lease, req.Error)
		}
		if !live {
			w.WriteHeader(http.StatusGone)
		}
	default:
		http.NotFound(w, r)
	}
}

// FarmClient is a worker's (or status query's) view of a coordinator.
type FarmClient struct {
	// Base is the coordinator URL, e.g. "http://127.0.0.1:8844".
	Base string
	// Worker names this client in claims and status output.
	Worker string
	// HTTP defaults to a client with a 10s request timeout.
	HTTP *http.Client
}

func (c *FarmClient) client() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 10 * time.Second}
}

func (c *FarmClient) post(path string, req, resp any) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, fmt.Errorf("lab: farm client: %w", err)
	}
	r, err := c.client().Post(c.Base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, fmt.Errorf("lab: farm client %s: %w", path, err)
	}
	defer r.Body.Close()
	if r.StatusCode == http.StatusOK && resp != nil {
		if err := decodeBody(r.Body, resp); err != nil {
			return 0, fmt.Errorf("lab: farm client %s: decoding response: %w", path, err)
		}
	}
	return r.StatusCode, nil
}

// get fetches path's body, at most maxFarmBody bytes; a longer body is an
// error, never a truncated read.
func (c *FarmClient) get(path string) ([]byte, error) {
	r, err := c.client().Get(c.Base + path)
	if err != nil {
		return nil, fmt.Errorf("lab: farm client %s: %w", path, err)
	}
	defer r.Body.Close()
	body, err := io.ReadAll(io.LimitReader(r.Body, maxFarmBody+1))
	switch {
	case err != nil:
	case r.StatusCode != http.StatusOK:
		err = fmt.Errorf("HTTP %d", r.StatusCode)
	case len(body) > maxFarmBody:
		err = fmt.Errorf("body exceeds %d bytes", maxFarmBody)
	}
	if err != nil {
		return nil, fmt.Errorf("lab: farm client %s: %w", path, err)
	}
	return body, nil
}

// Spec fetches the coordinator's spec document.
func (c *FarmClient) Spec() ([]byte, error) { return c.get("/spec") }

// Status fetches a progress snapshot.
func (c *FarmClient) Status() (FarmStatus, error) {
	var st FarmStatus
	body, err := c.get("/status")
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("lab: farm client /status: %w", err)
	}
	return st, nil
}

// Claim asks for a cell. The lease and TTL are only meaningful when the
// verdict is ClaimGranted.
func (c *FarmClient) Claim() (Cell, string, time.Duration, ClaimVerdict, error) {
	var resp claimResponse
	code, err := c.post("/claim", claimRequest{Worker: c.Worker}, &resp)
	if err != nil {
		return Cell{}, "", 0, ClaimWait, err
	}
	switch code {
	case http.StatusOK:
		return resp.Cell, resp.Lease, time.Duration(resp.TTLms) * time.Millisecond, ClaimGranted, nil
	case http.StatusNoContent:
		return Cell{}, "", 0, ClaimWait, nil
	case http.StatusGone:
		return Cell{}, "", 0, ClaimDone, nil
	}
	return Cell{}, "", 0, ClaimWait, fmt.Errorf("lab: farm client /claim: HTTP %d", code)
}

// settle posts one lease operation; false means the lease is gone.
func (c *FarmClient) settle(path string, req leaseRequest) (bool, error) {
	code, err := c.post(path, req, nil)
	return err == nil && code == http.StatusOK, err
}

// Renew extends the lease; false means it is gone and the worker must
// abandon the cell.
func (c *FarmClient) Renew(lease string) (bool, error) {
	return c.settle("/renew", leaseRequest{Lease: lease})
}

// Complete settles the lease with the archived run id.
func (c *FarmClient) Complete(lease, runID string) (bool, error) {
	return c.settle("/complete", leaseRequest{Lease: lease, RunID: runID})
}

// Fail settles the lease as permanently failed.
func (c *FarmClient) Fail(lease, reason string) (bool, error) {
	return c.settle("/fail", leaseRequest{Lease: lease, Error: reason})
}
