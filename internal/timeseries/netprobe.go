package timeseries

import (
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/wdm"
)

// Network-state gauge names, set by the probe SampleNetwork registers at
// every window seal.
const (
	// SeriesActiveConns gauges the live connection count.
	SeriesActiveConns = "active_conns"
	// SeriesLinkLoadMean and SeriesLinkLoadMax gauge per-link ρ(e)
	// aggregates; the max is the network load ρ of Eq. 2.
	SeriesLinkLoadMean = "link_load_mean"
	SeriesLinkLoadMax  = "link_load_max"
	// SeriesFragMean gauges mean first-fit wavelength fragmentation.
	SeriesFragMean = "frag_mean"
)

// NetProbe holds the network state sampled at the last window seal. A nil
// *NetProbe (telemetry off) has no state.
type NetProbe struct {
	latest atomic.Pointer[NetState]
}

// SampleNetwork registers the network-state probe: at every seal,
// sample(windowEnd) captures the network — ProbeNetwork plus whatever the
// owner adds — the four network gauges take its aggregates, and the state
// becomes the one Latest returns. sample runs on the owner goroutine, so it
// may read state only that goroutine writes. Register before the run
// starts; a nil collector returns a nil probe.
func (c *Collector) SampleNetwork(sample func(t float64) *NetState) *NetProbe {
	if c == nil {
		return nil
	}
	p := &NetProbe{}
	active, loadMean := c.Gauge(SeriesActiveConns), c.Gauge(SeriesLinkLoadMean)
	loadMax, fragMean := c.Gauge(SeriesLinkLoadMax), c.Gauge(SeriesFragMean)
	c.OnSeal(func(at float64) {
		ns := sample(at)
		active.Set(float64(ns.ActiveConns))
		loadMean.Set(ns.MeanLoad)
		loadMax.Set(ns.MaxLoad)
		fragMean.Set(ns.MeanFrag)
		p.latest.Store(ns)
	})
	return p
}

// Latest returns the network state sampled at the last seal, or nil before
// the first seal. Safe from any goroutine: the state is immutable.
func (p *NetProbe) Latest() *NetState {
	if p == nil {
		return nil
	}
	return p.latest.Load()
}

// LinkState is one link's utilization at probe time.
type LinkState struct {
	ID   int `json:"id"`
	From int `json:"from"`
	To   int `json:"to"`
	// N and Used are the installed and in-use wavelength counts; Load is
	// Used/N, the per-link ρ(e) of Eq. 2.
	N    int     `json:"n"`
	Used int     `json:"used"`
	Load float64 `json:"load"`
	// Frag is the first-fit fragmentation of the availability set
	// Λ_avail(e): 1 − longest contiguous free run / free count. 0 means the
	// free wavelengths form one block (first-fit finds them immediately and
	// wide-channel requests fit); values near 1 mean the free capacity is
	// scattered into single-wavelength islands.
	Frag float64 `json:"frag"`
}

// NetState is a point-in-time utilization snapshot of the whole network —
// the payload behind the /debug/net endpoint, sampled once per telemetry
// window so concurrent readers never touch the live (unsynchronised)
// wdm.Network.
type NetState struct {
	Time  float64 `json:"t"`
	Nodes int     `json:"nodes"`
	W     int     `json:"w"`
	// ActiveConns is the number of live connections (as reported by the
	// prober; -1 when unknown).
	ActiveConns int `json:"active_conns"`
	// MeanLoad and MaxLoad aggregate ρ(e) over links that carry
	// wavelengths; MaxLoad is the network load ρ of Eq. 2, as
	// wdm.Network.NetworkLoad defines it.
	MeanLoad float64 `json:"mean_load"`
	MaxLoad  float64 `json:"max_load"`
	// MeanFrag averages per-link first-fit fragmentation.
	MeanFrag float64 `json:"mean_frag"`
	// TotalAvail counts free (link, wavelength) pairs network-wide.
	TotalAvail int         `json:"total_avail"`
	Links      []LinkState `json:"links"`
	// Contention, when the prober supplies it, is the top-K most contended
	// links: the ones whose busy channels most often made an optimistic
	// admission lose its commit-time race. Sorted by conflict count,
	// descending; absent for probers that do not track commit conflicts
	// (the batch simulator).
	Contention []LinkContention `json:"contention,omitempty"`
}

// LinkContention is one entry of NetState.Contention: a link plus the
// cumulative number of commit-time reservation conflicts it caused.
type LinkContention struct {
	Link      int     `json:"link"`
	From      int     `json:"from"`
	To        int     `json:"to"`
	Conflicts int64   `json:"conflicts"`
	Load      float64 `json:"load"`
}

// Fragmentation returns the first-fit fragmentation of an availability set:
// 1 − longest contiguous free run / free count, and 0 for an empty or
// perfectly contiguous set.
func Fragmentation(avail *bitset.Set) float64 {
	free := avail.Count()
	if free == 0 {
		return 0
	}
	return 1 - float64(avail.LongestRun())/float64(free)
}

// ProbeNetwork captures the utilization state of net at time t. The caller
// must hold whatever synchronisation protects net (the simulator probes
// from its own goroutine at window seals); the returned NetState is
// immutable and safe to publish to concurrent readers.
func ProbeNetwork(net *wdm.Network, t float64, activeConns int) *NetState {
	ns := &NetState{
		Time:        t,
		Nodes:       net.Nodes(),
		W:           net.W(),
		ActiveConns: activeConns,
		MaxLoad:     net.NetworkLoad(),
		Links:       make([]LinkState, net.Links()),
	}
	carrying := 0
	for id := 0; id < net.Links(); id++ {
		l := net.Link(id)
		ls := LinkState{ID: id, From: l.From, To: l.To, N: l.N(), Used: l.U()}
		avail := l.Avail()
		ns.TotalAvail += avail.Count()
		if ls.N > 0 {
			ls.Load = l.Load()
			ls.Frag = Fragmentation(avail)
			carrying++
			ns.MeanLoad += ls.Load
			ns.MeanFrag += ls.Frag
		}
		ns.Links[id] = ls
	}
	if carrying > 0 {
		ns.MeanLoad /= float64(carrying)
		ns.MeanFrag /= float64(carrying)
	}
	return ns
}
