package invariants

import "go/ast"

// A forward dataflow problem over a cfg. Facts flow from the entry
// block through every edge to a fixpoint; the solver is generic over
// the fact type, so each pass supplies its own lattice:
//
//   - the ordering pass (ordering.go): F = bool "a marker has run".
//     flushed-by is its must rule, merge = AND (a send is safe only if
//     EVERY incoming path flushed); shedbeforelog its may rule,
//     merge = OR (one path that appended taints the shed);
//   - the held-lock pass (locks.go): F = the pair (may-held, must-held)
//     of mutex classes, solved once per function for both analyzers;
//     lockorder reads the may half (merge = union: a violation on any
//     interleaving is a violation), guardedby the must half
//     (merge = intersection).
//
// Edges are unconditional: no pass narrows a fact by the branch taken.
// Facts must be treated as immutable: transfer returns a new value (or
// the input unchanged), never mutates in place.
type flowSpec[F any] struct {
	entry    F                   // fact at function entry
	transfer func(F, ast.Node) F // effect of one block node
	merge    func(F, F) F        // join at control-flow merges
	equal    func(F, F) bool     // fixpoint termination test
}

// solve runs the worklist fixpoint and returns each reachable block's
// ENTRY fact. Unreachable blocks (dead code, detached break targets)
// are absent from the map; analyzers skip them. Analyzers that need
// facts at a specific node re-run transfer over the block's node
// prefix, which solveBlocks' callers do inline.
func solve[F any](g *cfg, spec flowSpec[F]) map[*cfgBlock]F {
	in := make(map[*cfgBlock]F)
	entry := g.entry()
	in[entry] = spec.entry
	work := []*cfgBlock{entry}
	queued := map[*cfgBlock]bool{entry: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk] = false
		f := in[blk]
		for _, n := range blk.nodes {
			f = spec.transfer(f, n)
		}
		for _, e := range blk.succs {
			old, seen := in[e.to]
			nf := f
			if seen {
				nf = spec.merge(old, f)
			}
			if !seen || !spec.equal(old, nf) {
				in[e.to] = nf
				if !queued[e.to] {
					queued[e.to] = true
					work = append(work, e.to)
				}
			}
		}
	}
	return in
}

// eachNodeFact walks every reachable block of g, calling visit with the
// fact holding immediately BEFORE each node executes, in order. This is
// the reporting pass analyzers run after solve: the fixpoint gives
// block-entry facts, the re-applied transfers give node-level facts.
func eachNodeFact[F any](g *cfg, spec flowSpec[F], in map[*cfgBlock]F, visit func(F, ast.Node)) {
	for _, blk := range g.blocks {
		f, ok := in[blk]
		if !ok {
			continue
		}
		for _, n := range blk.nodes {
			visit(f, n)
			f = spec.transfer(f, n)
		}
	}
}
