package lab

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testLabels is an eight-cell farm: two protocols × two seeds × two reps.
func testLabels() []string {
	var labels []string
	for _, p := range []string{"bulletprime", "bittorrent"} {
		for seed := 1; seed <= 2; seed++ {
			for rep := 0; rep < 2; rep++ {
				labels = append(labels, fmt.Sprintf("%s/modelnet/%d rep %d", p, seed, rep))
			}
		}
	}
	return labels
}

// testSpec stands in for a sweep spec: the farm serves it verbatim and
// never looks inside.
var testSpec = []byte(`{"Base":{"Nodes":8}}`)

func TestNewFarmValidates(t *testing.T) {
	if _, err := NewFarm(testSpec, nil, 0); err == nil {
		t.Error("a farm without cells must be refused")
	}
	// A spec no worker would read in full is refused up front.
	big := make([]byte, maxFarmBody+1)
	if _, err := NewFarm(big, testLabels(), 0); err == nil || !strings.Contains(err.Error(), "workers read at most") {
		t.Errorf("oversized spec: err %v", err)
	}
	f, err := NewFarm(testSpec, testLabels(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range f.cells {
		if c.Index != i || c.Label != testLabels()[i] {
			t.Fatalf("cell %d is %+v", i, c)
		}
	}
}

func TestRepSeed(t *testing.T) {
	if RepSeed(7, 0) != 7 {
		t.Fatal("rep 0 must be the base seed")
	}
	if RepSeed(7, 1) == RepSeed(7, 2) || RepSeed(7, 1) == RepSeed(8, 1) {
		t.Fatal("derived seeds collide")
	}
}

// farmAt builds a farm with a hand-controlled clock.
func farmAt(t *testing.T, labels []string, ttl time.Duration) (*Farm, *time.Time) {
	t.Helper()
	f, err := NewFarm(testSpec, labels, ttl)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	f.now = func() time.Time { return now }
	return f, &now
}

func TestFarmClaimCompleteLifecycle(t *testing.T) {
	f, _ := farmAt(t, testLabels(), time.Minute)
	total := len(f.cells)
	leases := map[string]string{} // lease -> worker
	cells := map[string]Cell{}
	for {
		c, lease, verdict := f.Claim("w1")
		if verdict != ClaimGranted {
			break
		}
		leases[lease] = "w1"
		cells[lease] = c
	}
	if len(leases) != total {
		t.Fatalf("claimed %d cells, want %d", len(leases), total)
	}
	if _, _, verdict := f.Claim("w2"); verdict != ClaimWait {
		t.Fatalf("fully-leased farm should answer wait, got %v", verdict)
	}
	for lease, c := range cells {
		if !f.Complete(lease, fmt.Sprintf("run-%d", c.Index)) {
			t.Fatalf("complete %s failed", lease)
		}
	}
	if _, _, verdict := f.Claim("w2"); verdict != ClaimDone {
		t.Fatal("completed farm should answer done")
	}
	st := f.Status()
	if !st.Complete() || st.Done != total || st.Workers["w1"] != total {
		t.Fatalf("status %+v", st)
	}
	if got := len(f.RunIDs()); got != total {
		t.Fatalf("%d run ids, want %d", got, total)
	}
}

func TestFarmLeaseExpiryReissues(t *testing.T) {
	f, now := farmAt(t, testLabels(), time.Minute)
	c1, lease1, verdict := f.Claim("w1")
	if verdict != ClaimGranted {
		t.Fatal("first claim refused")
	}
	// Before expiry the cell is not reissued; after, it is — under a
	// fresh lease, to a different worker, and the old lease is dead.
	*now = now.Add(30 * time.Second)
	if !f.Renew(lease1) {
		t.Fatal("live lease must renew")
	}
	*now = now.Add(2 * time.Minute)
	c2, lease2, verdict := f.Claim("w2")
	if verdict != ClaimGranted || c2.Index != c1.Index {
		t.Fatalf("expired cell not reissued first: %+v / %v", c2, verdict)
	}
	if lease2 == lease1 {
		t.Fatal("reissue must mint a fresh lease")
	}
	if f.Renew(lease1) {
		t.Fatal("expired lease must not renew")
	}
	if f.Complete(lease1, "stale") {
		t.Fatal("expired lease must not complete")
	}
	if !f.Complete(lease2, "run-x") {
		t.Fatal("live reissued lease must complete")
	}
	if st := f.Status(); st.Reissues != 1 || st.Done != 1 {
		t.Fatalf("status %+v", st)
	}
}

func TestFarmFailIsTerminal(t *testing.T) {
	f, _ := farmAt(t, []string{"bulletprime/modelnet/1 rep 0"}, time.Minute)
	_, lease, _ := f.Claim("w1")
	if !f.Fail(lease, "no such protocol") {
		t.Fatal("fail refused")
	}
	if _, _, verdict := f.Claim("w1"); verdict != ClaimDone {
		t.Fatal("failed-out farm must answer done, not reissue the poison cell")
	}
	st := f.Status()
	if !st.Complete() || st.Failed != 1 || len(st.Failures) != 1 ||
		st.Failures[0] != "bulletprime/modelnet/1 rep 0: no such protocol" {
		t.Fatalf("status %+v", st)
	}
}

func TestFarmResumeFromArchive(t *testing.T) {
	arch, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Four cells, bulletprime then bittorrent over seeds 1 and 2; the key
	// a cell's worker records under, in compact JSON.
	labels := []string{"bp/1", "bp/2", "bt/1", "bt/2"}
	key := func(i int) ([]byte, string, int64, bool) {
		proto := []string{"bulletprime", "bittorrent"}[i/2]
		return []byte(fmt.Sprintf(`{"protocol":%q,"network":"modelnet","nodes":8}`, proto)), "", int64(i%2 + 1), true
	}
	// Archive one of the four cells (bulletprime/modelnet/seed 1), with
	// indented config JSON and another code version: neither matters.
	run := mkRun("bulletprime", "modelnet", "", 1, 10, 20, 30)
	run.Meta.Config = []byte(`{"protocol": "bulletprime", "network": "modelnet", "nodes": 8}`)
	run.Meta.Nodes = 8
	run.Meta.Version = "v2"
	if _, _, err := arch.Put(run); err != nil {
		t.Fatal(err)
	}
	// A run sharing a cell's protocol, network, seed, and node count but
	// not its config (another file size) must not satisfy the cell.
	other := mkRun("bittorrent", "modelnet", "", 1, 10, 20, 30)
	other.Meta.Config = []byte(`{"protocol":"bittorrent","network":"modelnet","nodes":8,"file_bytes":4e6}`)
	other.Meta.Nodes = 8
	if _, _, err := arch.Put(other); err != nil {
		t.Fatal(err)
	}

	f, _ := farmAt(t, labels, time.Minute)
	n, err := f.ResumeFromArchive(arch, key)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("resumed %d cells, want 1", n)
	}
	st := f.Status()
	if st.Done != 1 || st.Pending != len(f.cells)-1 {
		t.Fatalf("status after resume %+v", st)
	}
	if c, _, _ := f.Claim("w1"); c.Index != 1 {
		t.Fatalf("first claim after resume is cell %d, want 1", c.Index)
	}
}

func TestFarmHTTPRoundTrip(t *testing.T) {
	f, _ := farmAt(t, testLabels(), time.Minute)
	srv := httptest.NewServer(&FarmServer{Farm: f})
	defer srv.Close()
	cl := &FarmClient{Base: srv.URL, Worker: "w1"}

	spec, err := cl.Spec()
	if err != nil || string(spec) != string(testSpec) {
		t.Fatalf("spec %q, %v", spec, err)
	}
	total := len(f.cells)
	for i := 0; i < total; i++ {
		cell, lease, ttl, verdict, err := cl.Claim()
		if err != nil || verdict != ClaimGranted || ttl <= 0 {
			t.Fatalf("claim %d: %v %v %v", i, verdict, ttl, err)
		}
		if ok, err := cl.Renew(lease); err != nil || !ok {
			t.Fatalf("renew: %v %v", ok, err)
		}
		if ok, err := cl.Complete(lease, fmt.Sprintf("run-%d", cell.Index)); err != nil || !ok {
			t.Fatalf("complete: %v %v", ok, err)
		}
	}
	if _, _, _, verdict, err := cl.Claim(); err != nil || verdict != ClaimDone {
		t.Fatalf("drained farm: %v %v", verdict, err)
	}
	st, err := cl.Status()
	if err != nil || !st.Complete() || st.Done != total {
		t.Fatalf("status %+v, %v", st, err)
	}
	// Settled leases answer 410 on late settle attempts.
	if ok, _ := cl.Complete("w1-0-1", "late"); ok {
		t.Fatal("settled lease must answer gone")
	}
}

// TestFarmClientBoundsResponses pins the client's read limit: a coordinator
// answering /spec, /status or /claim with a well-formed JSON body larger
// than maxFarmBody makes the call fail, where an unbounded decoder would
// read it in full and succeed.
func TestFarmClientBoundsResponses(t *testing.T) {
	huge := `{"failures":["` + strings.Repeat("x", 2*maxFarmBody) + `"]}`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, huge)
	}))
	defer srv.Close()
	cl := &FarmClient{Base: srv.URL, Worker: "w1"}

	if _, err := cl.Spec(); err == nil {
		t.Error("Spec accepted an oversized response")
	}
	if _, err := cl.Status(); err == nil {
		t.Error("Status accepted an oversized response")
	}
	if _, _, _, _, err := cl.Claim(); err == nil {
		t.Error("Claim accepted an oversized response")
	}
}
