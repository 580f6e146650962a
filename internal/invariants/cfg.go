package invariants

import (
	"go/ast"
	"go/token"
)

// This file builds per-function control-flow graphs over go/ast. The
// flow-sensitive passes (ordering, held locks) need path information the
// lexical passes could not see: whether EVERY path to a send passes a
// flush, which locks are held ALONG a path. Blocks hold the statements
// (and branch conditions) in evaluation order; edges are unconditional —
// no pass narrows its facts by the branch taken.
//
// The graph is intentionally modest — basic blocks over statements — but
// it handles the full statement grammar: if/for/range/switch/type-switch/
// select, labeled break/continue/goto, fallthrough, return and panic
// (both end a path without reaching the join, which is what a
// must-analysis wants). Function literals are NOT inlined: each literal
// is its own graph via eachScope, matching the "a literal is its own
// scope" rule the lexical flushed-by already enforced.

// cfgEdge is one control transfer.
type cfgEdge struct {
	to *cfgBlock
}

// cfgBlock is a basic block: statements (or branch-condition
// expressions) in evaluation order, then the outgoing edges.
type cfgBlock struct {
	nodes []ast.Node
	succs []cfgEdge
}

// cfg is one function body's control-flow graph. blocks[0] is the
// entry; exit is the single synthetic exit block (returns, panics and
// falling off the end all reach it). A defer statement is a node where
// it is written; what it defers runs at exit, which analyzers treat
// specially (a deferred Unlock keeps the lock held through the body; a
// deferred flush does NOT cover an earlier send).
type cfg struct {
	blocks []*cfgBlock
	exit   *cfgBlock
}

func (g *cfg) entry() *cfgBlock { return g.blocks[0] }

// buildCFG constructs the control-flow graph of one function body.
func buildCFG(body *ast.BlockStmt) *cfg {
	b := &cfgBuilder{g: &cfg{}}
	b.g.exit = &cfgBlock{}
	entry := b.newBlock()
	b.cur = entry
	b.stmt(body)
	if b.cur != nil {
		b.edge(b.cur, cfgEdge{to: b.g.exit})
	}
	b.resolveGotos()
	b.g.blocks = append(b.g.blocks, b.g.exit)
	return b.g
}

// loopFrame tracks the jump targets of one enclosing loop, switch or
// select for break/continue resolution. post is nil for non-loops
// (break-only frames).
type loopFrame struct {
	label      string
	brk, post  *cfgBlock
	isLoop     bool
	switchNext *cfgBlock // fallthrough target inside a switch clause
}

type pendingGoto struct {
	from  *cfgBlock
	label string
}

type cfgBuilder struct {
	g      *cfg
	cur    *cfgBlock // nil after a terminating statement (return, panic, branch)
	frames []loopFrame
	labels map[string]*cfgBlock
	gotos  []pendingGoto
	// nextLabel is set by a LabeledStmt so the following loop/switch
	// registers it as its frame label.
	nextLabel string
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from *cfgBlock, e cfgEdge) {
	from.succs = append(from.succs, e)
}

// here returns the current block, starting a fresh unreachable block
// for statements after a terminator (dead code still gets nodes, it
// just has no incoming edges and therefore no facts).
func (b *cfgBuilder) here() *cfgBlock {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) {
	blk := b.here()
	blk.nodes = append(blk.nodes, n)
}

func (b *cfgBuilder) resolveGotos() {
	for _, pg := range b.gotos {
		if target, ok := b.labels[pg.label]; ok {
			b.edge(pg.from, cfgEdge{to: target})
		} else {
			b.edge(pg.from, cfgEdge{to: b.g.exit}) // broken label: be safe
		}
	}
}

// isPanicCall reports whether the statement is a call to the builtin
// panic (treated as a path terminator, like return).
func isPanicCall(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		condBlk := b.here()
		thenBlk := b.newBlock()
		b.edge(condBlk, cfgEdge{to: thenBlk})
		join := b.newBlock()
		b.cur = thenBlk
		b.stmt(s.Body)
		if b.cur != nil {
			b.edge(b.cur, cfgEdge{to: join})
		}
		if s.Else != nil {
			elseBlk := b.newBlock()
			b.edge(condBlk, cfgEdge{to: elseBlk})
			b.cur = elseBlk
			b.stmt(s.Else)
			if b.cur != nil {
				b.edge(b.cur, cfgEdge{to: join})
			}
		} else {
			b.edge(condBlk, cfgEdge{to: join})
		}
		b.cur = join
	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		header := b.newBlock()
		b.edge(b.here(), cfgEdge{to: header})
		if s.Cond != nil {
			header.nodes = append(header.nodes, s.Cond)
		}
		body := b.newBlock()
		exit := b.newBlock()
		b.edge(header, cfgEdge{to: body})
		if s.Cond != nil { // `for {}` leaves the loop only via break
			b.edge(header, cfgEdge{to: exit})
		}
		post := b.newBlock()
		if s.Post != nil {
			post.nodes = append(post.nodes, s.Post)
		}
		b.edge(post, cfgEdge{to: header})
		b.labels = ensureLabel(b.labels, label, header)
		b.frames = append(b.frames, loopFrame{label: label, brk: exit, post: post, isLoop: true})
		b.cur = body
		b.stmt(s.Body)
		if b.cur != nil {
			b.edge(b.cur, cfgEdge{to: post})
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = exit
	case *ast.RangeStmt:
		label := b.takeLabel()
		b.add(s.X) // only the range expression evaluates here; the body
		// gets its own blocks (adding the whole statement would make
		// analyzers re-visit body nodes with the header block's facts)
		header := b.newBlock()
		b.edge(b.here(), cfgEdge{to: header})
		body := b.newBlock()
		exit := b.newBlock()
		b.edge(header, cfgEdge{to: body})
		b.edge(header, cfgEdge{to: exit})
		b.labels = ensureLabel(b.labels, label, header)
		b.frames = append(b.frames, loopFrame{label: label, brk: exit, post: header, isLoop: true})
		b.cur = body
		b.stmt(s.Body)
		if b.cur != nil {
			b.edge(b.cur, cfgEdge{to: header})
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = exit
	case *ast.SwitchStmt:
		b.buildSwitch(s.Init, s.Tag, s.Body)
	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.dispatch(label, s.Body.List, !hasDefaultClause(s.Body))
	case *ast.SelectStmt:
		label := b.takeLabel()
		b.add(s) // the statement itself is a node (a blocking point);
		// analyzers walk nodes with inspectNode, which does not descend
		// into the comm clauses — those run in their own blocks
		b.dispatch(label, s.Body.List, false)
	case *ast.LabeledStmt:
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			b.nextLabel = s.Label.Name
			b.stmt(s.Stmt)
		default:
			// A plain goto target: start a new block so the label has a
			// definite entry point.
			target := b.newBlock()
			if b.cur != nil {
				b.edge(b.cur, cfgEdge{to: target})
			}
			b.cur = target
			b.labels = ensureLabel(b.labels, s.Label.Name, target)
			b.stmt(s.Stmt)
		}
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if f := b.findFrame(s.Label, false); f != nil {
				b.edge(b.here(), cfgEdge{to: f.brk})
			}
			b.cur = nil
		case token.CONTINUE:
			if f := b.findFrame(s.Label, true); f != nil {
				b.edge(b.here(), cfgEdge{to: f.post})
			}
			b.cur = nil
		case token.GOTO:
			b.gotos = append(b.gotos, pendingGoto{from: b.here(), label: s.Label.Name})
			b.cur = nil
		case token.FALLTHROUGH:
			if f := b.topSwitchFrame(); f != nil && f.switchNext != nil {
				b.edge(b.here(), cfgEdge{to: f.switchNext})
			}
			b.cur = nil
		}
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.here(), cfgEdge{to: b.g.exit})
		b.cur = nil
	default:
		b.add(s)
		if isPanicCall(s) {
			b.edge(b.here(), cfgEdge{to: b.g.exit})
			b.cur = nil
		}
	}
}

// buildSwitch handles expression switches, with and without a tag: an
// edge from the dispatch to each clause, and to the join when there is
// no default clause.
func (b *cfgBuilder) buildSwitch(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt) {
	label := b.takeLabel()
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	disp := b.here()
	join := b.newBlock()

	var clauses []*ast.CaseClause
	for _, cc := range body.List {
		clauses = append(clauses, cc.(*ast.CaseClause))
	}
	// Pre-create the clause bodies so fallthrough can target the next one.
	blocks := make([]*cfgBlock, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock()
	}
	for i := range clauses {
		b.edge(disp, cfgEdge{to: blocks[i]})
	}
	if !hasDefaultClause(body) {
		b.edge(disp, cfgEdge{to: join})
	}
	for i, c := range clauses {
		var next *cfgBlock
		if i+1 < len(blocks) {
			next = blocks[i+1]
		}
		b.frames = append(b.frames, loopFrame{label: label, brk: join, switchNext: next})
		b.cur = blocks[i]
		for _, st := range c.Body {
			b.stmt(st)
		}
		if b.cur != nil {
			b.edge(b.cur, cfgEdge{to: join})
		}
		b.frames = b.frames[:len(b.frames)-1]
	}
	b.cur = join
}

// dispatch builds the clauses of a type switch or a select: each clause
// is its own block, entered from the current one and opened by a select
// case's comm statement, and all of them meet at a join — which open
// also links to the dispatch directly (a type switch without default).
func (b *cfgBuilder) dispatch(label string, clauses []ast.Stmt, open bool) {
	disp := b.here()
	join := b.newBlock()
	b.frames = append(b.frames, loopFrame{label: label, brk: join})
	for _, cc := range clauses {
		blk := b.newBlock()
		b.edge(disp, cfgEdge{to: blk})
		b.cur = blk
		var body []ast.Stmt
		switch c := cc.(type) {
		case *ast.CaseClause:
			body = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				blk.nodes = append(blk.nodes, c.Comm)
			}
			body = c.Body
		}
		for _, st := range body {
			b.stmt(st)
		}
		if b.cur != nil {
			b.edge(b.cur, cfgEdge{to: join})
		}
	}
	b.frames = b.frames[:len(b.frames)-1]
	if open {
		b.edge(disp, cfgEdge{to: join})
	}
	b.cur = join
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, cc := range body.List {
		if c, ok := cc.(*ast.CaseClause); ok && c.List == nil {
			return true
		}
	}
	return false
}

func (b *cfgBuilder) takeLabel() string {
	l := b.nextLabel
	b.nextLabel = ""
	return l
}

func ensureLabel(m map[string]*cfgBlock, label string, blk *cfgBlock) map[string]*cfgBlock {
	if label == "" {
		return m
	}
	if m == nil {
		m = make(map[string]*cfgBlock)
	}
	m[label] = blk
	return m
}

// topSwitchFrame finds the innermost switch frame (the only kind with
// a fallthrough target), for resolving a fallthrough statement.
func (b *cfgBuilder) topSwitchFrame() *loopFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		if b.frames[i].switchNext != nil {
			return &b.frames[i]
		}
	}
	return nil
}

// findFrame resolves a break (needLoop=false) or continue
// (needLoop=true) to its enclosing frame, innermost first.
func (b *cfgBuilder) findFrame(label *ast.Ident, needLoop bool) *loopFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if needLoop && !f.isLoop {
			continue
		}
		if label == nil || f.label == label.Name {
			return f
		}
	}
	return nil
}

// inspectNoFuncLit walks n in evaluation order without descending into
// function literals (each literal is analyzed as its own scope).
func inspectNoFuncLit(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}

// inspectNode walks one CFG node the way the dataflow analyzers must:
// skipping function literals AND the comm-clause bodies of a select
// statement, which the CFG has already split into their own blocks (the
// select node itself stays visible as the blocking point).
func inspectNode(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(sub ast.Node) bool {
		switch sub.(type) {
		case *ast.FuncLit, *ast.CommClause:
			return false
		}
		return fn(sub)
	})
}
