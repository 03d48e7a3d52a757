//! The parser and the printer read one precedence.
//!
//! For every ordered pair of binary operators `o1`, `o2`, the trees
//! `(a o1 b) o2 c` and `a o1 (b o2 c)` must print as text that parses back to
//! them, and exactly one of the two prints without parentheses, as the text
//! `a o1 b o2 c` parses.  So must every unary operator over every binary one,
//! and every binary operator over unary operands.  Each alias spelling parses
//! as its canonical operator and prints with the canonical spelling.

use svparse::pretty::emit_expr;
use svparse::{parse_module, BinaryOp, Expr, Item, UnaryOp};

const UNARY: [UnaryOp; 6] = [
    UnaryOp::LogicalNot,
    UnaryOp::BitNot,
    UnaryOp::Neg,
    UnaryOp::RedAnd,
    UnaryOp::RedOr,
    UnaryOp::RedXor,
];

/// `text` parsed as a continuous assignment's right-hand side.
fn parsed(text: &str) -> Expr {
    let source = format!(
        "module m(input a, input b, input c, output y);\n  assign y = {text};\nendmodule\n"
    );
    let module = parse_module(&source).unwrap_or_else(|err| panic!("`{text}`: {err}"));
    match module.items.into_iter().next() {
        Some(Item::Assign(assign)) => assign.rhs,
        other => panic!("`{text}` is not one assignment: {other:?}"),
    }
}

/// `expr` printed, then parsed back, must be `expr`; returns the text.
fn round_trip(expr: &Expr) -> String {
    let text = emit_expr(expr);
    assert_eq!(&parsed(&text), expr, "`{text}` parses as another tree");
    text
}

fn ident(name: &str) -> Expr {
    Expr::ident(name)
}

#[test]
fn every_pair_of_binary_operators_prints_as_it_parses() {
    let ops = BinaryOp::all();
    assert_eq!(ops.len(), 18);
    for &o1 in ops {
        for &o2 in ops {
            let inner = Expr::binary(o1, ident("a"), ident("b"));
            let left = Expr::binary(o2, inner, ident("c"));
            let inner = Expr::binary(o2, ident("b"), ident("c"));
            let right = Expr::binary(o1, ident("a"), inner);
            let (left_text, right_text) = (round_trip(&left), round_trip(&right));
            let flat = format!("a {} b {} c", o1.symbol(), o2.symbol());
            let flat_tree = parsed(&flat);
            let bare = [(&left, &left_text), (&right, &right_text)]
                .into_iter()
                .filter(|(_, text)| **text == flat)
                .collect::<Vec<_>>();
            assert_eq!(bare.len(), 1, "`{left_text}` and `{right_text}`");
            assert_eq!(&flat_tree, bare[0].0, "`{flat}`");
        }
    }
}

#[test]
fn every_unary_operator_over_every_binary_operator_prints_as_it_parses() {
    for op in UNARY {
        for &binary in BinaryOp::all() {
            let over = Expr::binary(binary, ident("a"), ident("b"));
            round_trip(&Expr::unary(op, over));
            let under = Expr::binary(binary, Expr::unary(op, ident("a")), ident("b"));
            round_trip(&under);
            let under = Expr::binary(binary, ident("a"), Expr::unary(op, ident("b")));
            round_trip(&under);
        }
        round_trip(&Expr::unary(op, Expr::unary(op, ident("a"))));
    }
}

#[test]
fn each_alias_parses_as_its_canonical_operator_and_prints_canonically() {
    let aliases = [
        ("===", BinaryOp::Eq),
        ("!==", BinaryOp::Ne),
        ("<<<", BinaryOp::Shl),
        (">>>", BinaryOp::Shr),
    ];
    for (alias, op) in aliases {
        let expr = parsed(&format!("a {alias} b"));
        assert_eq!(expr, Expr::binary(op, ident("a"), ident("b")), "{alias}");
        assert_eq!(emit_expr(&expr), format!("a {} b", op.symbol()), "{alias}");
    }
}
