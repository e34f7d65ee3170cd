package serve

import (
	"strings"
	"testing"
)

// TestReplayRejectsTamperedJournal is Replay's negative test: a serial
// journal replays cleanly, and each single mutation of it — a decision the
// recorded commit order cannot have produced — makes Replay fail with the
// check that catches it.
func TestReplayRejectsTamperedJournal(t *testing.T) {
	initial := nsf(8)
	e := startEngine(t, initial, Config{JournalCap: 100})
	for _, req := range []Request{{ID: 1, Src: 0, Dst: 13}, {ID: 2, Src: 2, Dst: 11}, {ID: 3, Src: 5, Dst: 9}} {
		if resp := e.Provision(req); !resp.Accepted {
			t.Fatalf("provision %+v blocked: %+v", req, resp)
		}
	}
	if resp := e.Reroute(2); !resp.Accepted {
		t.Fatalf("reroute 2 refused: %+v", resp)
	}
	if resp := e.Teardown(1); !resp.Accepted {
		t.Fatalf("teardown 1 refused: %+v", resp)
	}
	if resp := e.Provision(Request{ID: 4, Src: 3, Dst: 10}); !resp.Accepted {
		t.Fatalf("provision 4 blocked: %+v", resp)
	}
	journal, truncated := e.Journal()
	if truncated || len(journal) != 6 {
		t.Fatalf("journal: %d entries (truncated %v), want 6", len(journal), truncated)
	}
	const (
		prov1, prov2, prov3, reroute2, teardown1, prov4 = 0, 1, 2, 3, 4, 5
	)
	replayed, err := Replay(initial, journal)
	if err != nil {
		t.Fatalf("untampered journal: %v", err)
	}
	if _, snap := e.Snapshot(); !availEqual(replayed, snap) {
		t.Fatal("untampered journal does not reproduce the engine's state")
	}

	for _, tc := range []struct {
		name   string
		mutate func(j []JournalEntry)
		want   string // a fragment of the error of the check that must fire
	}{
		{"pair moved onto held channels", func(j []JournalEntry) {
			j[prov2].Primary = j[prov1].Primary // connection 1 is live
		}, "accepted primary does not replay"},
		{"accepted provision relabelled conflict", func(j []JournalEntry) {
			j[prov3].Accepted, j[prov3].Reason = false, ReasonConflict
		}, "reserves cleanly"},
		{"teardown names other paths", func(j []JournalEntry) {
			// Connection 3's pair: held, so a bare release would succeed.
			j[teardown1].Primary, j[teardown1].Backup = j[prov3].Primary, j[prov3].Backup
		}, "does not hold"},
		{"cost off by one", func(j []JournalEntry) {
			j[prov1].Cost++
		}, "replayed cost"},
		{"reroute names other endpoints", func(j []JournalEntry) {
			j[reroute2].Src, j[reroute2].Dst = 5, 9
		}, "reroute for (5, 9)"},
		{"unknown op", func(j []JournalEntry) {
			j[prov4].Op = "split"
		}, "unknown op"},
	} {
		j := append([]JournalEntry(nil), journal...)
		tc.mutate(j)
		_, err := Replay(initial, j)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Replay error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
