package reconfig

import (
	"testing"

	"repro/internal/check"
	"repro/internal/core"
)

// TestOptimizeOnGeneratedChurn replays generated establish/teardown streams
// onto generated topologies, then reconfigures the survivors and audits the
// result with the check oracle: reconfiguration must never corrupt a
// connection (both paths stay legal, reserved, and edge-disjoint), never
// worsen ρ, keep the global channel bookkeeping consistent, and release
// cleanly back to pristine capacity.
func TestOptimizeOnGeneratedChurn(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		in := check.GenerateSeeded(seed, 7)
		net, err := in.Build()
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		baseAvail := net.TotalAvailable()

		// Replay the op stream with the cost-only router (the one that piles
		// onto hot links and gives reconfiguration something to do). Blocked
		// establishes drop their teardowns.
		live := map[int]*Connection{}
		for i, op := range in.Ops {
			if op.Teardown >= 0 {
				c := live[op.Teardown]
				if c == nil {
					continue
				}
				delete(live, op.Teardown)
				if err := net.ReleasePath(c.Primary); err != nil {
					t.Fatalf("seed %d op %d: release primary: %v", seed, i, err)
				}
				if err := net.ReleasePath(c.Backup); err != nil {
					t.Fatalf("seed %d op %d: release backup: %v", seed, i, err)
				}
				continue
			}
			r, ok := core.NewRouter(nil).ApproxMinCost(net, op.Src, op.Dst)
			if !ok {
				continue
			}
			if err := core.Establish(net, r); err != nil {
				t.Fatalf("seed %d op %d: establish: %v", seed, i, err)
			}
			live[i] = &Connection{ID: i, Src: op.Src, Dst: op.Dst, Primary: r.Primary, Backup: r.Backup}
		}

		var conns []*Connection
		for _, c := range live {
			conns = append(conns, c)
		}
		before := net.NetworkLoad()
		res := Optimize(net, conns, 3, nil)
		if res.LoadBefore != before {
			t.Fatalf("seed %d: LoadBefore = %g, want %g", seed, res.LoadBefore, before)
		}
		if res.LoadAfter > res.LoadBefore+1e-12 {
			t.Fatalf("seed %d: reconfiguration worsened ρ: %g → %g", seed, res.LoadBefore, res.LoadAfter)
		}
		if got := net.NetworkLoad(); got != res.LoadAfter {
			t.Fatalf("seed %d: LoadAfter = %g, network says %g", seed, res.LoadAfter, got)
		}
		if err := check.LoadAccounting(net); err != nil {
			t.Fatalf("seed %d: after optimize: %v", seed, err)
		}
		for _, c := range conns {
			if err := check.Path(net, c.Primary, c.Src, c.Dst); err != nil {
				t.Fatalf("seed %d conn %d: primary: %v", seed, c.ID, err)
			}
			if err := check.Path(net, c.Backup, c.Src, c.Dst); err != nil {
				t.Fatalf("seed %d conn %d: backup: %v", seed, c.ID, err)
			}
			if err := check.Reserved(net, c.Primary); err != nil {
				t.Fatalf("seed %d conn %d: primary: %v", seed, c.ID, err)
			}
			if err := check.Reserved(net, c.Backup); err != nil {
				t.Fatalf("seed %d conn %d: backup: %v", seed, c.ID, err)
			}
			if err := check.EdgeDisjoint(c.Primary, c.Backup); err != nil {
				t.Fatalf("seed %d conn %d: %v", seed, c.ID, err)
			}
		}

		// Drain and verify nothing leaked through the re-route churn.
		for _, c := range conns {
			if err := net.ReleasePath(c.Primary); err != nil {
				t.Fatalf("seed %d: drain primary: %v", seed, err)
			}
			if err := net.ReleasePath(c.Backup); err != nil {
				t.Fatalf("seed %d: drain backup: %v", seed, err)
			}
		}
		if got := net.TotalAvailable(); got != baseAvail {
			t.Fatalf("seed %d: capacity leak: %d available after drain, want %d", seed, got, baseAvail)
		}
		if rho := net.NetworkLoad(); rho != 0 {
			t.Fatalf("seed %d: ρ = %g after drain", seed, rho)
		}
	}
}

// TestOptimizeIdempotentOnGenerated re-runs Optimize on an already-optimized
// state: the second pass must find nothing to move.
func TestOptimizeIdempotentOnGenerated(t *testing.T) {
	in := check.GenerateSeeded(5, 6)
	net, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	var conns []*Connection
	for i, op := range in.Ops {
		if op.Teardown >= 0 {
			continue
		}
		r, ok := core.NewRouter(nil).ApproxMinCost(net, op.Src, op.Dst)
		if !ok {
			continue
		}
		if err := core.Establish(net, r); err != nil {
			t.Fatal(err)
		}
		conns = append(conns, &Connection{ID: i, Src: op.Src, Dst: op.Dst, Primary: r.Primary, Backup: r.Backup})
	}
	Optimize(net, conns, 0, nil)
	second := Optimize(net, conns, 0, nil)
	if second.Moves != 0 {
		t.Fatalf("second optimize still moved %d connections", second.Moves)
	}
	if second.LoadAfter != second.LoadBefore {
		t.Fatalf("second optimize changed ρ: %g → %g", second.LoadBefore, second.LoadAfter)
	}
}
