//! Expression-level mutation operators.
//!
//! Each operator takes an expression and rewrites exactly one node, returning `None`
//! when the expression offers no applicable site.  The [`crate::inject`] module picks
//! the statement and drives these operators; keeping them small and pure makes them
//! easy to test and reuse (the repair model's fix generator applies the *inverse*
//! candidates of the same operator families).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use svparse::{BinaryOp, Expr, Literal, UnaryOp};

/// Replaces one identifier occurrence with a different name drawn from `candidates`.
///
/// Returns `None` when the expression contains no identifiers or no candidate differs
/// from the chosen one.
pub(crate) fn mutate_var(expr: &Expr, candidates: &[String], rng: &mut StdRng) -> Option<Expr> {
    let idents = collect_ident_count(expr);
    if idents == 0 || candidates.is_empty() {
        return None;
    }
    // Try a handful of (site, replacement) combinations before giving up.
    for _ in 0..8 {
        let site = rng.gen_range(0..idents);
        let replacement = candidates.choose(rng)?.clone();
        let mut changed = false;
        let mutated = rewrite_idents(expr, &mut |i, name| {
            if i == site && name != replacement {
                changed = true;
                replacement.clone()
            } else {
                name.to_string()
            }
        });
        if changed {
            return Some(mutated);
        }
    }
    None
}

/// Perturbs one numeric literal (off-by-one, bit flip, zeroing, or width change).
pub(crate) fn mutate_value(expr: &Expr, rng: &mut StdRng) -> Option<Expr> {
    let literals = collect_literal_count(expr);
    if literals == 0 {
        return None;
    }
    let site = rng.gen_range(0..literals);
    let strategy = rng.gen_range(0..4u8);
    let mut changed = false;
    let bit_to_flip = rng.gen_range(0..64u32);
    let mutated = rewrite_literals(expr, &mut |i, lit| {
        if i != site {
            return *lit;
        }
        let width = lit.width.unwrap_or(32);
        let max = if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let new_value = match strategy {
            0 => (lit.value.wrapping_add(1)) & max,
            1 => lit.value.wrapping_sub(1) & max,
            2 => (lit.value ^ (1 << (bit_to_flip % width.max(1)))) & max,
            _ => {
                if lit.value == 0 {
                    max
                } else {
                    0
                }
            }
        };
        if new_value != lit.value {
            changed = true;
            Literal {
                value: new_value,
                ..*lit
            }
        } else {
            // Degenerate case (e.g. 1-bit literal where +1 == flip): force a change.
            changed = true;
            Literal {
                value: (!lit.value) & max,
                ..*lit
            }
        }
    });
    if changed {
        Some(mutated)
    } else {
        None
    }
}

/// Replaces one binary operator with a confusable alternative, or toggles a logical
/// negation at the root (the classic `if (valid)` → `if (!valid)` flip).
pub(crate) fn mutate_op(expr: &Expr, rng: &mut StdRng) -> Option<Expr> {
    let ops = collect_binop_count(expr);
    // One extra "virtual site" stands for toggling negation at the root.
    let total_sites = ops + 1;
    let site = rng.gen_range(0..total_sites);
    if site == ops {
        return Some(toggle_negation(expr));
    }
    let mut changed = false;
    let mut picks: Vec<BinaryOp> = Vec::new();
    if let Some(current) = nth_binop(expr, site) {
        picks.push(confusable_op(current, rng));
    }
    let mutated = rewrite_binops(expr, &mut |i, op| {
        if i == site {
            let replacement = picks.first().copied().unwrap_or(op);
            if replacement != op {
                changed = true;
            }
            replacement
        } else {
            op
        }
    });
    if changed {
        Some(mutated)
    } else {
        Some(toggle_negation(expr))
    }
}

/// Wraps the expression in a logical negation, or strips one if already present.
pub(crate) fn toggle_negation(expr: &Expr) -> Expr {
    match expr {
        Expr::Unary(UnaryOp::LogicalNot, inner) => (**inner).clone(),
        other => Expr::unary(UnaryOp::LogicalNot, other.clone()),
    }
}

/// Operators that engineers plausibly confuse with `op`, from the same family.
pub(crate) fn confusable_op(op: BinaryOp, rng: &mut StdRng) -> BinaryOp {
    let family: &[BinaryOp] = match op {
        BinaryOp::Add | BinaryOp::Sub => &[BinaryOp::Add, BinaryOp::Sub],
        BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
            &[BinaryOp::Mul, BinaryOp::Div, BinaryOp::Mod]
        }
        BinaryOp::Shl | BinaryOp::Shr => &[BinaryOp::Shl, BinaryOp::Shr],
        BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => {
            &[BinaryOp::Lt, BinaryOp::Le, BinaryOp::Gt, BinaryOp::Ge]
        }
        BinaryOp::Eq | BinaryOp::Ne => &[BinaryOp::Eq, BinaryOp::Ne],
        BinaryOp::BitAnd | BinaryOp::BitOr | BinaryOp::BitXor => {
            &[BinaryOp::BitAnd, BinaryOp::BitOr, BinaryOp::BitXor]
        }
        BinaryOp::LogicalAnd | BinaryOp::LogicalOr => &[BinaryOp::LogicalAnd, BinaryOp::LogicalOr],
    };
    let alternatives: Vec<BinaryOp> = family.iter().copied().filter(|o| *o != op).collect();
    *alternatives.choose(rng).unwrap_or(&op)
}

// --- small structural rewriting helpers -------------------------------------------

fn collect_ident_count(expr: &Expr) -> usize {
    let mut count = 0;
    expr.walk(&mut |e| {
        if matches!(e, Expr::Ident(_)) {
            count += 1;
        }
    });
    count
}

fn collect_literal_count(expr: &Expr) -> usize {
    let mut count = 0;
    expr.walk(&mut |e| {
        if matches!(e, Expr::Number(_)) {
            count += 1;
        }
    });
    count
}

fn collect_binop_count(expr: &Expr) -> usize {
    let mut count = 0;
    expr.walk(&mut |e| {
        if matches!(e, Expr::Binary(_, _, _)) {
            count += 1;
        }
    });
    count
}

fn nth_binop(expr: &Expr, site: usize) -> Option<BinaryOp> {
    let mut found = None;
    let mut index = 0usize;
    expr.walk(&mut |e| {
        if let Expr::Binary(op, _, _) = e {
            if index == site && found.is_none() {
                found = Some(*op);
            }
            index += 1;
        }
    });
    found
}

fn rewrite_idents(expr: &Expr, rename: &mut impl FnMut(usize, &str) -> String) -> Expr {
    let mut counter = 0usize;
    map_expr(expr, &mut |e| {
        if let Expr::Ident(name) = e {
            let site = counter;
            counter += 1;
            Some(Expr::Ident(rename(site, name)))
        } else {
            None
        }
    })
}

fn rewrite_literals(expr: &Expr, edit: &mut impl FnMut(usize, &Literal) -> Literal) -> Expr {
    let mut counter = 0usize;
    map_expr(expr, &mut |e| {
        if let Expr::Number(lit) = e {
            let site = counter;
            counter += 1;
            Some(Expr::Number(edit(site, lit)))
        } else {
            None
        }
    })
}

fn rewrite_binops(expr: &Expr, edit: &mut impl FnMut(usize, BinaryOp) -> BinaryOp) -> Expr {
    let mut counter = 0usize;
    rewrite_binops_inner(expr, &mut counter, edit)
}

fn rewrite_binops_inner(
    expr: &Expr,
    counter: &mut usize,
    edit: &mut impl FnMut(usize, BinaryOp) -> BinaryOp,
) -> Expr {
    match expr {
        Expr::Binary(op, lhs, rhs) => {
            // Pre-order: visit this operator before descending, matching walk().
            let site = *counter;
            *counter += 1;
            let new_op = edit(site, *op);
            let new_lhs = rewrite_binops_inner(lhs, counter, edit);
            let new_rhs = rewrite_binops_inner(rhs, counter, edit);
            Expr::Binary(new_op, Box::new(new_lhs), Box::new(new_rhs))
        }
        other => map_children(other, &mut |child| {
            rewrite_binops_inner(child, counter, edit)
        }),
    }
}

/// Applies `f` to every node pre-order; when `f` returns `Some`, the replacement is
/// used and children are *not* visited (the replacement already incorporates them).
fn map_expr(expr: &Expr, f: &mut impl FnMut(&Expr) -> Option<Expr>) -> Expr {
    if let Some(replacement) = f(expr) {
        return replacement;
    }
    map_children(expr, &mut |child| map_expr(child, f))
}

fn map_children(expr: &Expr, recurse: &mut impl FnMut(&Expr) -> Expr) -> Expr {
    match expr {
        Expr::Number(_) | Expr::Ident(_) | Expr::Part(_, _) => expr.clone(),
        Expr::Unary(op, inner) => Expr::Unary(*op, Box::new(recurse(inner))),
        Expr::Binary(op, a, b) => Expr::Binary(*op, Box::new(recurse(a)), Box::new(recurse(b))),
        Expr::Ternary(c, a, b) => Expr::Ternary(
            Box::new(recurse(c)),
            Box::new(recurse(a)),
            Box::new(recurse(b)),
        ),
        Expr::Bit(name, idx) => Expr::Bit(name.clone(), Box::new(recurse(idx))),
        Expr::Concat(parts) => Expr::Concat(parts.iter().map(&mut *recurse).collect()),
        Expr::Repeat(n, inner) => Expr::Repeat(*n, Box::new(recurse(inner))),
        Expr::Past(inner, n) => Expr::Past(Box::new(recurse(inner)), *n),
        Expr::Rose(inner) => Expr::Rose(Box::new(recurse(inner))),
        Expr::Fell(inner) => Expr::Fell(Box::new(recurse(inner))),
        Expr::Stable(inner) => Expr::Stable(Box::new(recurse(inner))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use svparse::Parser;

    fn expr(src: &str) -> Expr {
        Parser::new(src).unwrap().parse_expr().unwrap()
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn mutate_var_changes_exactly_one_ident() {
        let e = expr("a + b");
        let candidates = vec!["c".to_string(), "d".to_string()];
        let mutated = mutate_var(&e, &candidates, &mut rng(1)).unwrap();
        assert_ne!(mutated, e);
        let before = e.idents();
        let after = mutated.idents();
        // Exactly one of a/b was replaced by a candidate.
        let replaced: Vec<_> = before.iter().filter(|n| !after.contains(n)).collect();
        assert_eq!(replaced.len(), 1);
        assert!(after.iter().any(|n| candidates.contains(n)));
    }

    #[test]
    fn mutate_var_needs_candidates_and_idents() {
        assert!(mutate_var(&expr("4'd3 + 4'd1"), &["x".into()], &mut rng(2)).is_none());
        assert!(mutate_var(&expr("a + b"), &[], &mut rng(2)).is_none());
    }

    #[test]
    fn mutate_value_changes_a_literal() {
        let e = expr("cnt + 4'd3");
        for seed in 0..8 {
            let mutated = mutate_value(&e, &mut rng(seed)).unwrap();
            assert_ne!(mutated, e, "seed {seed} produced no change");
        }
        assert!(mutate_value(&expr("a + b"), &mut rng(0)).is_none());
    }

    #[test]
    fn mutate_op_changes_operator_or_negation() {
        let e = expr("a & b");
        let mutated = mutate_op(&e, &mut rng(3)).unwrap();
        assert_ne!(mutated, e);
        // Pure identifier: the only option is toggling negation.
        let neg = mutate_op(&expr("valid"), &mut rng(4)).unwrap();
        assert_eq!(neg, expr("!valid"));
        // Toggling twice round-trips.
        assert_eq!(
            toggle_negation(&toggle_negation(&expr("valid"))),
            expr("valid")
        );
    }

    #[test]
    fn confusable_ops_stay_in_family() {
        let mut r = rng(5);
        for _ in 0..32 {
            assert!(matches!(
                confusable_op(BinaryOp::Add, &mut r),
                BinaryOp::Sub
            ));
            let cmp = confusable_op(BinaryOp::Lt, &mut r);
            assert!(matches!(cmp, BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge));
            let logical = confusable_op(BinaryOp::LogicalAnd, &mut r);
            assert_eq!(logical, BinaryOp::LogicalOr);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let e = expr("a + b - 4'd7");
        let m1 = mutate_value(&e, &mut rng(9));
        let m2 = mutate_value(&e, &mut rng(9));
        assert_eq!(m1, m2);
    }
}
