package reconfig

import (
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/conns"
	"repro/internal/core"
)

// churn replays a generated instance's establish/teardown stream into a
// fresh table with the cost-only router (the one that piles onto hot links
// and gives reconfiguration something to do). Blocked establishes drop
// their teardowns.
func churn(t *testing.T, in *check.Instance) *conns.Table[struct{}] {
	t.Helper()
	net, err := in.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	tab := conns.New[struct{}](net)
	router := core.NewRouter(nil)
	for i, op := range in.Ops {
		if op.Teardown >= 0 {
			if _, err := tab.Teardown(int64(op.Teardown)); err != nil && err != conns.ErrUnknown {
				t.Fatalf("op %d: teardown: %v", i, err) // ErrUnknown: its establish was blocked
			}
			continue
		}
		r, ok := router.ApproxMinCost(net, op.Src, op.Dst)
		if !ok {
			continue
		}
		if _, err := tab.Admit(int64(i), op.Src, op.Dst, conns.Pair{Primary: r.Primary.Hops, Backup: r.Backup.Hops}); err != nil {
			t.Fatalf("op %d: admit: %v", i, err)
		}
	}
	return tab
}

// snapshot renders every live connection's paths, by ID.
func snapshot(tab *conns.Table[struct{}]) map[int64]string {
	out := map[int64]string{}
	for _, id := range tab.IDs(nil) {
		c, _ := tab.Get(id)
		out[id] = fmt.Sprint(c.Primary, c.Backup)
	}
	return out
}

// TestOptimizeOnGeneratedChurn replays generated establish/teardown streams
// onto generated topologies, then reconfigures the survivors and audits the
// table: reconfiguration must never corrupt a connection (both paths stay
// legal, reserved, and edge-disjoint), never worsen ρ, keep the global
// channel bookkeeping consistent, and tear down cleanly to pristine
// capacity.
func TestOptimizeOnGeneratedChurn(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		in := check.GenerateSeeded(seed, 7)
		base, err := in.Build()
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		baseAvail := base.TotalAvailable()
		tab := churn(t, in)
		net := tab.Network()
		before := net.NetworkLoad()
		paths := snapshot(tab)
		res := Optimize(tab)
		if res.LoadBefore != before {
			t.Fatalf("seed %d: LoadBefore = %g, want %g", seed, res.LoadBefore, before)
		}
		if res.LoadAfter > res.LoadBefore+1e-12 {
			t.Fatalf("seed %d: reconfiguration worsened ρ: %g → %g", seed, res.LoadBefore, res.LoadAfter)
		}
		if got := net.NetworkLoad(); got != res.LoadAfter {
			t.Fatalf("seed %d: LoadAfter = %g, network says %g", seed, res.LoadAfter, got)
		}
		if err := tab.Audit(); err != nil {
			t.Fatalf("seed %d: after optimize: %v", seed, err)
		}
		// A move that did not improve ρ is undone, so every connection that
		// ends on other paths was counted as moved.
		changed := 0
		for id, p := range snapshot(tab) {
			if p != paths[id] {
				changed++
			}
		}
		if changed > res.Moves {
			t.Fatalf("seed %d: %d connections changed paths, %d moves counted", seed, changed, res.Moves)
		}

		// Drain and verify nothing leaked through the re-route churn.
		drain(t, tab)
		if got := net.TotalAvailable(); got != baseAvail {
			t.Fatalf("seed %d: capacity leak: %d available after drain, want %d", seed, got, baseAvail)
		}
	}
}

// TestOptimizeIdempotentOnGenerated re-runs Optimize on an already-optimized
// state: the second pass must find nothing to move.
func TestOptimizeIdempotentOnGenerated(t *testing.T) {
	tab := churn(t, check.GenerateSeeded(5, 6))
	Optimize(tab)
	mustAudit(t, tab)
	second := Optimize(tab)
	mustAudit(t, tab)
	if second.Moves != 0 {
		t.Fatalf("second optimize still moved %d connections", second.Moves)
	}
	if second.LoadAfter != second.LoadBefore {
		t.Fatalf("second optimize changed ρ: %g → %g", second.LoadBefore, second.LoadAfter)
	}
}
