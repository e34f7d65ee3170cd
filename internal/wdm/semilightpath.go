package wdm

import (
	"fmt"
	"strings"
)

// Hop is one step of a semilightpath: a link traversed on a specific
// wavelength.
type Hop struct {
	Link       int        // link ID in the network
	Wavelength Wavelength // λ assigned to the link
}

// Semilightpath is a directed path with a wavelength assigned to every link
// (§2). Conversion switch settings at intermediate nodes are implied by
// consecutive hop wavelengths.
type Semilightpath struct {
	Hops []Hop
}

// Len returns the number of links on the path.
func (p *Semilightpath) Len() int { return len(p.Hops) }

// Source returns the first node of the path (panics on an empty path).
func (p *Semilightpath) Source(g *Network) int { return g.Link(p.Hops[0].Link).From }

// Nodes returns the node sequence visited by the path (length Len()+1).
func (p *Semilightpath) Nodes(g *Network) []int {
	if len(p.Hops) == 0 {
		return nil
	}
	nodes := make([]int, 0, len(p.Hops)+1)
	nodes = append(nodes, g.Link(p.Hops[0].Link).From)
	for _, h := range p.Hops {
		nodes = append(nodes, g.Link(h.Link).To)
	}
	return nodes
}

// LinkCost returns Σ w(e_i, λ_i), the traversal component of Eq. 1.
func (p *Semilightpath) LinkCost(g *Network) float64 {
	c := 0.0
	for _, h := range p.Hops {
		c += g.Link(h.Link).Cost(h.Wavelength)
	}
	return c
}

// ConvCost returns Σ c_{head(e_i)}(λ_i, λ_{i+1}), the conversion component
// of Eq. 1.
func (p *Semilightpath) ConvCost(g *Network) float64 {
	c := 0.0
	for i := 0; i+1 < len(p.Hops); i++ {
		v := g.Link(p.Hops[i].Link).To
		c += g.ConvCost(v, p.Hops[i].Wavelength, p.Hops[i+1].Wavelength)
	}
	return c
}

// Cost returns C(P) per Eq. 1: link traversal costs plus conversion costs at
// intermediate nodes.
func (p *Semilightpath) Cost(g *Network) float64 {
	return p.LinkCost(g) + p.ConvCost(g)
}

// Validate checks that the path is a connected directed walk from src to dst,
// that every hop's wavelength is installed on its link, and that every
// implied conversion is allowed by the intermediate node's switch. It does
// NOT require wavelengths to be currently available; use ValidateAvailable
// for that.
func (p *Semilightpath) Validate(g *Network, src, dst int) error {
	if len(p.Hops) == 0 {
		return fmt.Errorf("wdm: empty semilightpath")
	}
	at := src
	for i, h := range p.Hops {
		if h.Link < 0 || h.Link >= g.Links() {
			return fmt.Errorf("wdm: hop %d: link %d out of range", i, h.Link)
		}
		l := g.Link(h.Link)
		if l.From != at {
			return fmt.Errorf("wdm: hop %d: link %d starts at node %d, expected %d", i, h.Link, l.From, at)
		}
		if h.Wavelength < 0 || h.Wavelength >= g.W() || !l.Lambda().Contains(h.Wavelength) {
			return fmt.Errorf("wdm: hop %d: λ%d not installed on link %d", i, h.Wavelength, h.Link)
		}
		if i > 0 {
			prev := p.Hops[i-1]
			if prev.Wavelength != h.Wavelength && !g.Converter(at).Allowed(prev.Wavelength, h.Wavelength) {
				return fmt.Errorf("wdm: hop %d: conversion λ%d→λ%d not allowed at node %d",
					i, prev.Wavelength, h.Wavelength, at)
			}
		}
		at = l.To
	}
	if at != dst {
		return fmt.Errorf("wdm: path ends at node %d, expected %d", at, dst)
	}
	return nil
}

// ValidateAvailable is Validate plus the requirement that every hop's
// wavelength is currently in Λ_avail of its link.
func (p *Semilightpath) ValidateAvailable(g *Network, src, dst int) error {
	if err := p.Validate(g, src, dst); err != nil {
		return err
	}
	for i, h := range p.Hops {
		if !g.Link(h.Link).HasAvail(h.Wavelength) {
			return fmt.Errorf("wdm: hop %d: λ%d on link %d is in use", i, h.Wavelength, h.Link)
		}
	}
	return nil
}

// EdgeDisjoint reports whether p and q share no physical link.
func (p *Semilightpath) EdgeDisjoint(q *Semilightpath) bool {
	seen := make(map[int]bool, len(p.Hops))
	for _, h := range p.Hops {
		seen[h.Link] = true
	}
	for _, h := range q.Hops {
		if seen[h.Link] {
			return false
		}
	}
	return true
}

// String renders the path as "0 -[e3:λ1]-> 2 -[e7:λ1]-> 5".
func (p *Semilightpath) String() string {
	if len(p.Hops) == 0 {
		return "<empty>"
	}
	var b strings.Builder
	for i, h := range p.Hops {
		if i == 0 {
			fmt.Fprintf(&b, "·")
		}
		fmt.Fprintf(&b, " -[e%d:λ%d]-> ·", h.Link, h.Wavelength)
	}
	return b.String()
}

// Format renders the path with concrete node IDs from the network.
func (p *Semilightpath) Format(g *Network) string {
	if len(p.Hops) == 0 {
		return "<empty>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d", p.Source(g))
	for _, h := range p.Hops {
		fmt.Fprintf(&b, " -[e%d:λ%d]-> %d", h.Link, h.Wavelength, g.Link(h.Link).To)
	}
	return b.String()
}

// Reserve atomically locks every (link, wavelength) pair on the path. Either
// all hops are reserved or none are (on error the partial reservation is
// rolled back).
func (g *Network) Reserve(p *Semilightpath) error {
	for i, h := range p.Hops {
		if err := g.Use(h.Link, h.Wavelength); err != nil {
			for j := 0; j < i; j++ {
				// Rollback cannot fail: we just reserved these.
				if rerr := g.Release(p.Hops[j].Link, p.Hops[j].Wavelength); rerr != nil {
					//wdmlint:ignore hotalloc panic-path formatting; unreachable in a correct run
					panic(fmt.Sprintf("wdm: rollback failed: %v", rerr))
				}
			}
			//wdmlint:ignore hotalloc error return path; never taken on the admit path
			return fmt.Errorf("wdm: reserve hop %d: %w", i, err)
		}
	}
	return nil
}

// ReleasePath returns every (link, wavelength) pair on the path to the pool.
func (g *Network) ReleasePath(p *Semilightpath) error {
	for i, h := range p.Hops {
		if err := g.Release(h.Link, h.Wavelength); err != nil {
			return fmt.Errorf("wdm: release hop %d: %w", i, err)
		}
	}
	return nil
}
