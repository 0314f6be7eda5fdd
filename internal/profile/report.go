package profile

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/fastfit/fastfit/internal/mpi"
)

// Report renders the communication profile in the spirit of mpiP's
// aggregate report: one row per collective call site with invocation
// counts, payload volume, stack diversity and context annotations, plus
// the rank-equivalence summary semantic pruning consumes.
func (p *Profile) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "communication profile: %d ranks, %d collective sites, %d injection points\n",
		p.Ranks, len(p.Sites), p.TotalPoints())
	if n := p.TotalP2PPoints(); n > 0 {
		fmt.Fprintf(&sb, "point-to-point: %d sites, %d injection points\n", len(p.P2PSites), n)
	}

	// Aggregate per static call site across ranks.
	type agg struct {
		site   uint64
		name   string
		typ    mpi.CollType
		ranks  int
		invs   int
		bytes  int64
		stacks int
		errHdl int
		phases map[mpi.Phase]bool
	}
	bySite := map[uint64]*agg{}
	var aggs []*agg
	for _, s := range p.SiteList() {
		a := bySite[s.Site]
		if a == nil {
			a = &agg{site: s.Site, name: s.Name, typ: s.Type, phases: map[mpi.Phase]bool{}}
			bySite[s.Site] = a
			aggs = append(aggs, a)
		}
		a.ranks++
		a.invs += s.Invocations()
		if s.DistinctStacks() > a.stacks {
			a.stacks = s.DistinctStacks()
		}
		for _, iv := range s.Invs {
			a.bytes += int64(iv.Bytes)
			if iv.ErrHandling {
				a.errHdl++
			}
			a.phases[iv.Phase] = true
		}
	}
	slices.SortFunc(aggs, func(a, b *agg) int { return mpi.CompareSites(a.name, a.site, b.name, b.site) })

	fmt.Fprintf(&sb, "\n%-20s %6s %6s %10s %7s %7s %-18s %s\n",
		"collective", "ranks", "calls", "bytes", "stacks", "errhdl", "phases", "site")
	for _, a := range aggs {
		var phases []string
		for ph := mpi.PhaseInit; ph <= mpi.PhaseEnd; ph++ {
			if a.phases[ph] {
				phases = append(phases, ph.String())
			}
		}
		fmt.Fprintf(&sb, "%-20s %6d %6d %10d %7d %7d %-18s %s\n",
			a.typ, a.ranks, a.invs, a.bytes, a.stacks, a.errHdl,
			strings.Join(phases, ","), a.name)
	}

	// Rank equivalence classes (the semantic-pruning input).
	type class struct{ cg, tr uint64 }
	members := map[class][]int{}
	for rank := 0; rank < p.Ranks; rank++ {
		c := class{p.CallGraphHash[rank], p.TraceHash[rank]}
		members[c] = append(members[c], rank)
	}
	classes := make([][]int, 0, len(members))
	for _, m := range members {
		classes = append(classes, m)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i][0] < classes[j][0] })
	fmt.Fprintf(&sb, "\nrank equivalence classes (call graph + communication trace): %d\n", len(classes))
	for _, m := range classes {
		fmt.Fprintf(&sb, "  %s\n", rankRange(m))
	}
	return sb.String()
}

// rankRange compresses a sorted rank list into a compact range string.
func rankRange(ranks []int) string {
	if len(ranks) == 0 {
		return "(none)"
	}
	var parts []string
	start, prev := ranks[0], ranks[0]
	flush := func() {
		if start == prev {
			parts = append(parts, fmt.Sprint(start))
		} else {
			parts = append(parts, fmt.Sprintf("%d-%d", start, prev))
		}
	}
	for _, r := range ranks[1:] {
		if r == prev+1 {
			prev = r
			continue
		}
		flush()
		start, prev = r, r
	}
	flush()
	return strings.Join(parts, ",")
}
