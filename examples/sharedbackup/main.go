// Sharedbackup: quantify the capacity cost of the paper's dedicated-backup
// activate approach against shared-backup path protection (SBPP), and walk
// through a failure: the affected connection switches to its shared backup
// while its sharing partners lose protection (but keep running).
//
//	go run ./examples/sharedbackup
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	const demands = 50
	rng := rand.New(rand.NewSource(42))

	// Establish the same demand set under SBPP.
	mgr := repro.NewSharedProtection(repro.NSFNET(repro.TopoConfig{W: 8}))
	var ids []int
	var conns []*repro.SharedConnection
	for i := 0; i < demands; i++ {
		s := rng.Intn(14)
		d := rng.Intn(13)
		if d >= s {
			d++
		}
		if c, ok := mgr.Establish(s, d); ok {
			ids = append(ids, c.ID)
			conns = append(conns, c)
		}
	}
	rep := mgr.Report()
	fmt.Printf("NSFNET, W=8, %d demands, %d placed\n\n", demands, mgr.Connections())
	fmt.Printf("primary channels reserved       %d\n", rep.PrimaryChannels)
	fmt.Printf("backup channels if dedicated    %d   (the paper's activate approach)\n", rep.BackupDemand)
	fmt.Printf("backup channels actually used   %d   (%d of them shared)\n", rep.BackupChannels, rep.SharedChannels)
	fmt.Printf("backup capacity saved           %.1f%%\n\n", 100*rep.Savings())

	// Fail a link carrying a primary and watch the switchovers.
	net := mgr.Net()
	failed := conns[0].Primary.Hops[0].Link
	recovered, lost, unprotected := mgr.FailLink(failed)
	fmt.Printf("failing link %d (%d→%d):\n", failed, net.Link(failed).From, net.Link(failed).To)
	fmt.Printf("  recovered via shared backup   %d\n", recovered)
	fmt.Printf("  lost                          %d\n", lost)
	fmt.Printf("  partners left unprotected     %d\n\n", unprotected)
	fmt.Println("Sharing is safe under the single-link-failure model: channels are")
	fmt.Println("only shared between connections whose primaries are link-disjoint,")
	fmt.Println("so one failure never triggers two sharers at once.")

	// Clean teardown (capacity audit). A single failure loses no
	// connection, so every placed connection is still there to tear down.
	for _, id := range ids {
		if err := mgr.Teardown(id); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\nafter teardown: network load ρ = %.3g\n", mgr.Net().NetworkLoad())
}
