package netsim

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/wdm"
)

// TestFailurePathAudited runs the connection-table audit after every event
// of failure-heavy runs: capacity conservation (quarantined channels
// included), reservation legality and primary/backup disjointness must hold
// while links are down and after they are repaired, and no live connection
// may still ride a down link once the failure event is handled.
func TestFailurePathAudited(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    Restoration
	}{{"active+reprotect", Active}, {"passive", Passive}} {
		t.Run(tc.name, func(t *testing.T) {
			tr := eventLog()
			sim := New(nsf(4), Config{
				Algorithm: MinCost, Restoration: tc.r, Reprotect: tc.r == Active,
				FailureRate: 3, RepairTime: 5, Seed: 3,
				ReconfigThreshold: 0.75, ReconfigCooldown: 0.2, Tracer: tr,
			})
			net := sim.Network()
			total := net.TotalAvailable()
			whileDown, afterRepair := 0, 0
			sim.afterEvent = func() {
				if err := sim.tab.Audit(); err != nil {
					t.Fatalf("audit after event %d: %v", whileDown+afterRepair, err)
				}
				down := 0
				for l := 0; l < net.Links(); l++ {
					if sim.tab.Down(l) {
						down++
					}
				}
				switch {
				case down > 0:
					whileDown++
				case whileDown > 0:
					afterRepair++
				}
				for _, id := range sim.tab.IDs(nil) {
					c, _ := sim.tab.Get(id)
					for _, hops := range [2][]wdm.Hop{c.Primary, c.Backup} {
						for _, h := range hops {
							if sim.tab.Down(h.Link) {
								t.Fatalf("conn %d still rides down link %d", id, h.Link)
							}
						}
					}
				}
			}
			m := sim.Run(poisson(14, 800, 30, 9))
			if whileDown == 0 || afterRepair == 0 {
				t.Fatalf("audits while down %d, after repair %d: both paths must be exercised", whileDown, afterRepair)
			}
			repairs := census(simEvents(t, tr))["sim.repair/"+obs.StatusOK]
			if m.AffectedConns == 0 || m.RecoveryFailed == 0 || repairs == 0 {
				t.Fatalf("degenerate run: %d affected, %d dropped, %d repairs",
					m.AffectedConns, m.RecoveryFailed, repairs)
			}
			if tc.r == Active && (m.ReprotectOK == 0 || m.BackupLost == 0) {
				t.Fatalf("re-protection not exercised: %d re-protected, %d backups lost", m.ReprotectOK, m.BackupLost)
			}
			// Every holding time is finite and every repair has run: the
			// network is idle again.
			if sim.LiveConnections() != 0 || net.TotalAvailable() != total {
				t.Fatalf("%d live, %d of %d channels available after the run",
					sim.LiveConnections(), net.TotalAvailable(), total)
			}
		})
	}
}
