package core_test

import (
	"fmt"

	"linkguardian/internal/core"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// Example shows the minimal LinkGuardian deployment: protect one direction
// of a corrupting link and observe that every packet arrives despite the
// loss.
func Example() {
	sim := simnet.NewSim(1)
	h1 := simnet.NewHost(sim, "h1")
	h2 := simnet.NewHost(sim, "h2")
	link := simnet.Connect(sim, h1, h2, simtime.Rate25G, 100*simtime.Nanosecond)
	link.SetLoss(link.A(), simnet.IIDLoss{P: 0.01})

	delivered := 0
	h2.OnReceive = func(p *simnet.Packet) { delivered++ }

	lg := core.Protect(sim, link.A(), core.NewConfig(simtime.Rate25G, 0.01))
	lg.Enable()

	for i := 0; i < 10000; i++ {
		h1.Send(sim.NewPacket(simnet.KindData, 1400, "h2"))
	}
	sim.RunFor(20 * simtime.Millisecond)

	fmt.Printf("delivered %d/10000, recovered %d losses with %d copies each\n",
		delivered, lg.M.Retransmits, lg.Copies())
	// Output:
	// delivered 10000/10000, recovered 91 losses with 3 copies each
}
