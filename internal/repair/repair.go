// Package repair implements the paper's third future-work direction (§5.3,
// "Synthesizing Program Repairs"): automatically generating
// human-interpretable rewrite hints that fix a packet program the
// classical compiler rejects.
//
// The paper asks: "Is it possible to generate local rewrites to fit a
// problematic network program into a packet-processing pipeline?" This
// package answers for the Domino baseline: given a program the baseline's
// syntactic atom matcher rejects, it searches breadth-first over a
// database of small, semantics-preserving local rewrites — commuting
// operands back into template order, folding arithmetic identities,
// un-negating relational guards, flipping branches, converting between
// statement and expression conditionals — for a short rewrite sequence
// after which the baseline accepts the program. Every candidate is proven
// equivalent to the original by exhaustive simulation at a small bit width
// before it is reported, so a hint never changes the program's meaning
// (the paper's "semantic distance" is held at zero; lossy repairs are
// approximate synthesis's territory, cegis.Options.Care).
//
// The rewrite database is intentionally the mirror image of
// internal/mutate's operators: what the mutation generator scrambles, the
// repairer unscrambles — closing the loop on the Table 2 experiment.
package repair

import (
	"fmt"
	"time"

	"repro/internal/alu"
	"repro/internal/ast"
	"repro/internal/domino"
	"repro/internal/interp"
	"repro/internal/word"
)

// Rewrite names one local rewrite applied by a repair.
type Rewrite string

// The rewrite database.
const (
	RwCommute      Rewrite = "commute"        // b+a -> a+b (put the state variable first)
	RwFoldIdentity Rewrite = "fold_identity"  // e+0, e*1, -(-e), ~~e -> e (whole-program)
	RwUnNegateRel  Rewrite = "unnegate_rel"   // !(a >= b) -> a < b
	RwFlipIf       Rewrite = "flip_if"        // if (!c) A else B -> if (c) B else A
	RwFlipTernary  Rewrite = "flip_ternary"   // !c ? t : f -> c ? f : t
	RwRelFlip      Rewrite = "rel_flip"       // b > a -> a < b
	RwTernaryToIf  Rewrite = "ternary_to_if"  // x = c ? e : x -> if (c) x = e
	RwAssocLeft    Rewrite = "assoc_left"     // a+(b+c) -> (a+b)+c
	RwAddNegToSub  Rewrite = "add_neg_to_sub" // a + (-b) -> a - b
)

// Step is one applied rewrite, with before/after renderings of the
// affected statement list for the human-readable hint.
type Step struct {
	Rewrite Rewrite
}

// Result reports a repair search.
type Result struct {
	// Repaired is true when a rewrite sequence was found after which the
	// baseline accepts the program.
	Repaired bool
	// Program is the repaired program (nil when not repaired).
	Program *ast.Program
	// Steps names the rewrites applied, in order — the hint shown to the
	// developer.
	Steps []Rewrite
	// Reason is the baseline's final rejection reason when not repaired.
	Reason string
	// Explored counts candidate programs visited.
	Explored int
	Elapsed  time.Duration
}

// Options bounds the search.
type Options struct {
	// MaxDepth bounds the rewrite-sequence length. 0 means 4.
	MaxDepth int
	// MaxExplored bounds total candidates. 0 means 2000.
	MaxExplored int
	// CheckWidth is the exhaustive-equivalence width. 0 means 3. The
	// program's total input bits at this width must stay enumerable.
	CheckWidth word.Width
}

func (o *Options) maxDepth() int {
	if o.MaxDepth == 0 {
		return 4
	}
	return o.MaxDepth
}

func (o *Options) maxExplored() int {
	if o.MaxExplored == 0 {
		return 2000
	}
	return o.MaxExplored
}

func (o *Options) checkWidth() word.Width {
	if o.CheckWidth == 0 {
		return 3
	}
	return o.CheckWidth
}

// Repair searches for rewrites that make the baseline accept prog with the
// given stateful ALU template.
func Repair(prog *ast.Program, kind alu.Kind, constBits int, opts Options) (*Result, error) {
	start := time.Now()
	res := &Result{}

	check, err := interp.New(opts.checkWidth())
	if err != nil {
		return nil, err
	}

	accepts := func(p *ast.Program) (bool, string, error) {
		r, err := domino.Compile(p, kind, constBits)
		if err != nil {
			return false, "", err
		}
		return r.OK, r.Reason, nil
	}

	ok, reason, err := accepts(prog)
	if err != nil {
		return nil, err
	}
	if ok {
		res.Repaired = true
		res.Program = prog
		res.Elapsed = time.Since(start)
		return res, nil
	}
	res.Reason = reason

	type node struct {
		prog  *ast.Program
		steps []Rewrite
	}
	queue := []node{{prog: prog}}
	seen := map[string]bool{prog.Print(): true}

	for len(queue) > 0 && res.Explored < opts.maxExplored() {
		cur := queue[0]
		queue = queue[1:]
		if len(cur.steps) >= opts.maxDepth() {
			continue
		}
		for _, cand := range neighbors(cur.prog) {
			key := cand.prog.Print()
			if seen[key] {
				continue
			}
			seen[key] = true
			res.Explored++

			// Soundness gate: a hint must preserve semantics.
			eq, _, err := check.Equivalent(prog, cand.prog)
			if err != nil {
				// Input space too large for exhaustive checking: treat
				// as an option error rather than silently trusting.
				return nil, fmt.Errorf("repair: equivalence check failed: %w", err)
			}
			if !eq {
				// A rewrite rule is broken; fail loudly — this is a bug,
				// not a search miss.
				return nil, fmt.Errorf("repair: rewrite %s changed semantics:\n%s", cand.rw, cand.prog.Print())
			}

			ok, reason, err := accepts(cand.prog)
			if err != nil {
				return nil, err
			}
			steps := append(append([]Rewrite{}, cur.steps...), cand.rw)
			if ok {
				res.Repaired = true
				res.Program = cand.prog
				res.Steps = steps
				res.Elapsed = time.Since(start)
				return res, nil
			}
			res.Reason = reason
			if res.Explored >= opts.maxExplored() {
				break
			}
			queue = append(queue, node{prog: cand.prog, steps: steps})
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

type candidate struct {
	prog *ast.Program
	rw   Rewrite
}

// neighbors enumerates every single-rewrite variant of p.
func neighbors(p *ast.Program) []candidate {
	var out []candidate

	// Whole-program identity folding (one candidate, often decisive).
	folded := domino.Simplify(p)
	if !ast.EqualStmts(folded.Stmts, p.Stmts) {
		out = append(out, candidate{prog: folded, rw: RwFoldIdentity})
	}

	// Expression-local rewrites.
	addExprRewrites(p, &out)

	// Statement-local rewrites.
	addStmtRewrites(p, &out)

	return out
}

// addExprRewrites enumerates expression-local rewrites: for each slot index
// and rule, clone the program, apply the rule at that slot, and keep the
// clone if the rule matched.
func addExprRewrites(p *ast.Program, out *[]candidate) {
	total := 0
	forEachExprSlot(p.Stmts, func(*ast.Expr) { total++ })

	try := func(idx int, rw Rewrite, fn func(slot *ast.Expr) bool) {
		q := p.Clone()
		i := 0
		applied := false
		forEachExprSlot(q.Stmts, func(slot *ast.Expr) {
			if i == idx {
				applied = fn(slot)
			}
			i++
		})
		if applied {
			*out = append(*out, candidate{prog: q, rw: rw})
		}
	}

	for idx := 0; idx < total; idx++ {
		try(idx, RwCommute, func(slot *ast.Expr) bool {
			b, ok := (*slot).(*ast.Binary)
			if !ok || !b.Op.IsCommutative() {
				return false
			}
			b.X, b.Y = b.Y, b.X
			return true
		})
		try(idx, RwRelFlip, func(slot *ast.Expr) bool {
			b, ok := (*slot).(*ast.Binary)
			if !ok {
				return false
			}
			flip, ok := relFlip[b.Op]
			if !ok {
				return false
			}
			b.Op = flip
			b.X, b.Y = b.Y, b.X
			return true
		})
		try(idx, RwUnNegateRel, func(slot *ast.Expr) bool {
			u, ok := (*slot).(*ast.Unary)
			if !ok || u.Op != ast.OpNot {
				return false
			}
			b, ok := u.X.(*ast.Binary)
			if !ok {
				return false
			}
			inv, ok := relInvert[b.Op]
			if !ok {
				return false
			}
			*slot = &ast.Binary{Op: inv, X: b.X, Y: b.Y}
			return true
		})
		try(idx, RwFlipTernary, func(slot *ast.Expr) bool {
			t, ok := (*slot).(*ast.Ternary)
			if !ok {
				return false
			}
			u, ok := t.Cond.(*ast.Unary)
			if !ok || u.Op != ast.OpNot {
				return false
			}
			*slot = &ast.Ternary{Cond: u.X, T: t.F, F: t.T}
			return true
		})
		try(idx, RwAssocLeft, func(slot *ast.Expr) bool {
			b, ok := (*slot).(*ast.Binary)
			if !ok || b.Op != ast.OpAdd {
				return false
			}
			inner, ok := b.Y.(*ast.Binary)
			if !ok || inner.Op != ast.OpAdd {
				return false
			}
			*slot = &ast.Binary{Op: ast.OpAdd,
				X: &ast.Binary{Op: ast.OpAdd, X: b.X, Y: inner.X}, Y: inner.Y}
			return true
		})
		try(idx, RwAddNegToSub, func(slot *ast.Expr) bool {
			b, ok := (*slot).(*ast.Binary)
			if !ok || b.Op != ast.OpAdd {
				return false
			}
			u, ok := b.Y.(*ast.Unary)
			if !ok || u.Op != ast.OpNeg {
				return false
			}
			*slot = &ast.Binary{Op: ast.OpSub, X: b.X, Y: u.X}
			return true
		})
	}
}

func addStmtRewrites(p *ast.Program, out *[]candidate) {
	// Count statements.
	total := 0
	forEachStmtSlot(p.Stmts, func([]ast.Stmt, int) { total++ })

	try := func(idx int, rw Rewrite, fn func(list []ast.Stmt, i int) bool) {
		q := p.Clone()
		i := 0
		applied := false
		forEachStmtSlot(q.Stmts, func(list []ast.Stmt, j int) {
			if i == idx {
				applied = fn(list, j)
			}
			i++
		})
		if applied {
			*out = append(*out, candidate{prog: q, rw: rw})
		}
	}

	for idx := 0; idx < total; idx++ {
		try(idx, RwFlipIf, func(list []ast.Stmt, i int) bool {
			ifs, ok := list[i].(*ast.If)
			if !ok {
				return false
			}
			u, ok := ifs.Cond.(*ast.Unary)
			if !ok || u.Op != ast.OpNot {
				return false
			}
			ifs.Cond = u.X
			ifs.Then, ifs.Else = ifs.Else, ifs.Then
			return true
		})
		try(idx, RwTernaryToIf, func(list []ast.Stmt, i int) bool {
			a, ok := list[i].(*ast.Assign)
			if !ok {
				return false
			}
			t, ok := a.RHS.(*ast.Ternary)
			if !ok {
				return false
			}
			// Only the guarded-update shape x = c ? e : x converts.
			if !ast.EqualExpr(t.F, a.LHS.Ref()) {
				return false
			}
			list[i] = &ast.If{Cond: t.Cond, Then: []ast.Stmt{
				&ast.Assign{LHS: a.LHS, RHS: t.T},
			}}
			return true
		})
	}
}

var relFlip = map[ast.Op]ast.Op{
	ast.OpLt: ast.OpGt, ast.OpLe: ast.OpGe, ast.OpGt: ast.OpLt, ast.OpGe: ast.OpLe,
}

var relInvert = map[ast.Op]ast.Op{
	ast.OpEq: ast.OpNe, ast.OpNe: ast.OpEq,
	ast.OpLt: ast.OpGe, ast.OpLe: ast.OpGt, ast.OpGt: ast.OpLe, ast.OpGe: ast.OpLt,
}

// forEachExprSlot mirrors mutate's traversal.
func forEachExprSlot(stmts []ast.Stmt, fn func(*ast.Expr)) {
	var walkExpr func(slot *ast.Expr)
	walkExpr = func(slot *ast.Expr) {
		fn(slot)
		switch e := (*slot).(type) {
		case *ast.Unary:
			walkExpr(&e.X)
		case *ast.Binary:
			walkExpr(&e.X)
			walkExpr(&e.Y)
		case *ast.Ternary:
			walkExpr(&e.Cond)
			walkExpr(&e.T)
			walkExpr(&e.F)
		}
	}
	var walkStmts func([]ast.Stmt)
	walkStmts = func(ss []ast.Stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case *ast.Assign:
				walkExpr(&s.RHS)
			case *ast.If:
				walkExpr(&s.Cond)
				walkStmts(s.Then)
				walkStmts(s.Else)
			}
		}
	}
	walkStmts(stmts)
}

func forEachStmtSlot(stmts []ast.Stmt, fn func(list []ast.Stmt, i int)) {
	for i, s := range stmts {
		fn(stmts, i)
		if ifs, ok := s.(*ast.If); ok {
			forEachStmtSlot(ifs.Then, fn)
			forEachStmtSlot(ifs.Else, fn)
		}
	}
}
