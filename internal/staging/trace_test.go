package staging

import (
	"strings"
	"testing"

	"gospaces/internal/domain"
)

// TestTraceCapturesProtocolStory verifies the server-side trace records
// the full crash-consistency narrative: puts, gets, checkpoint,
// recovery, suppression, replay, GC.
func TestTraceCapturesProtocolStory(t *testing.T) {
	g := testGroup(t, 2)
	prod, _ := g.NewClient("sim/0")
	cons, _ := g.NewClient("ana/0")
	defer prod.Close()
	defer cons.Close()
	b := domain.Box3(0, 0, 0, 15, 15, 15)

	for ts := int64(1); ts <= 3; ts++ {
		if err := prod.PutWithLog("f", ts, b, fill(domain.BufLen(b, 8), ts)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cons.GetWithLog("f", ts, b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := prod.WorkflowCheck(); err != nil {
		t.Fatal(err)
	}
	if _, err := prod.WorkflowRestart(); err != nil {
		t.Fatal(err)
	}
	// One suppressed re-put would only occur for events after the
	// checkpoint; produce new work instead and read it.
	if err := prod.PutWithLog("f", 4, b, fill(domain.BufLen(b, 8), 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := cons.WorkflowCheck(); err != nil {
		t.Fatal(err)
	}

	per, err := prod.TraceRecords(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 2 {
		t.Fatalf("trace of %d servers, want 2", len(per))
	}
	var lines []string
	for sid, resp := range per {
		if len(resp.Raw) == 0 || resp.Total != uint64(len(resp.Raw)) {
			t.Fatalf("server %d: %d records retained of %d total", sid, len(resp.Raw), resp.Total)
		}
		for _, r := range resp.Raw {
			lines = append(lines, r.String())
		}
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{" put ", " get ", " checkpoint ", " recovery", " gc "} {
		if !strings.Contains(joined, want) {
			t.Fatalf("trace missing %q:\n%s", want, joined)
		}
	}

	// Limit caps the records per server, not the total.
	few, err := prod.TraceRecords(2)
	if err != nil {
		t.Fatal(err)
	}
	for sid, resp := range few {
		if len(resp.Raw) > 2 || resp.Total != per[sid].Total {
			t.Fatalf("server %d: limit 2 returned %d records, total %d", sid, len(resp.Raw), resp.Total)
		}
	}
}
