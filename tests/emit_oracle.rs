//! The streaming emitter against the one it replaced.
//!
//! `svparse::emit_module` writes through one `fmt::Write` sink and
//! `svparse::emits_as` compares against a text as it writes.  The
//! `String`-building emitter they replaced (one `String` per line and per
//! sub-expression, lines joined at the end) is kept verbatim below as their
//! oracle.  Over every module the flow renders or judges — default-corpus
//! goldens and their mutants, the fuzz corpus, the human cases and every
//! quick-scale candidate of the three checkpoints — the new emitter must
//! write the oracle's bytes, and `emits_as(m, t)` must equal
//! `oracle(m) == t` for the judge's text and for near misses of both texts.

use assertsolver::{apply_line_edit, human_crafted_cases, train, EvalConfig, TrainConfig};
use std::path::Path;
use svgen::{CorpusConfig, CorpusGenerator};
use svmodel::CaseInput;
use svmutate::BugInjector;
use svparse::{emit_module, emits_as, parse_module, Module};
use svserve::{serve_scoped, RepairRequest};

/// The `String`-building emitter, verbatim but for its `use` line.
#[cfg(test)]
mod oracle {
    use svparse::ast::*;

    /// Emits a single module in canonical form (one statement per line, two-space indent).
    pub fn emit_module(module: &Module) -> String {
        let mut w = Writer::new();
        if module.ports.is_empty() {
            w.line(0, &format!("module {}();", module.name));
        } else {
            w.line(0, &format!("module {}(", module.name));
            for (i, port) in module.ports.iter().enumerate() {
                let comma = if i + 1 == module.ports.len() { "" } else { "," };
                w.line(1, &format!("{}{}", emit_port(port), comma));
            }
            w.line(0, ");");
        }
        for item in &module.items {
            emit_item(&mut w, item);
        }
        w.line(0, "endmodule");
        w.finish()
    }

    /// Emits an expression in canonical form (minimal parentheses).
    pub fn emit_expr(expr: &Expr) -> String {
        expr_text(expr, 0)
    }

    /// Emits an lvalue in canonical form.
    pub fn emit_lvalue(lvalue: &LValue) -> String {
        match lvalue {
            LValue::Ident(n) => n.clone(),
            LValue::Bit(n, idx) => format!("{n}[{}]", emit_expr(idx)),
            LValue::Part(n, range) => format!("{n}{range}"),
            LValue::Concat(parts) => {
                let inner: Vec<String> = parts.iter().map(emit_lvalue).collect();
                format!("{{{}}}", inner.join(", "))
            }
        }
    }

    struct Writer {
        lines: Vec<String>,
    }

    impl Writer {
        fn new() -> Self {
            Self { lines: Vec::new() }
        }

        fn line(&mut self, indent: usize, text: &str) {
            let mut s = "  ".repeat(indent);
            s.push_str(text);
            self.lines.push(s);
        }

        fn finish(self) -> String {
            let mut out = self.lines.join("\n");
            out.push('\n');
            out
        }
    }

    fn emit_port(port: &Port) -> String {
        let mut s = port.dir.to_string();
        if port.net == NetKind::Reg && port.dir == PortDir::Output {
            s.push_str(" reg");
        }
        if let Some(range) = port.width {
            s.push_str(&format!(" {range}"));
        }
        s.push(' ');
        s.push_str(&port.name);
        s
    }

    fn emit_item(w: &mut Writer, item: &Item) {
        match item {
            Item::Net(decl) => {
                let range = decl.width.map(|r| format!(" {r}")).unwrap_or_default();
                w.line(
                    1,
                    &format!("{}{} {};", decl.kind, range, decl.names.join(", ")),
                );
            }
            Item::Param(p) => {
                let kw = if p.local { "localparam" } else { "parameter" };
                w.line(1, &format!("{kw} {} = {};", p.name, emit_expr(&p.value)));
            }
            Item::Assign(a) => {
                w.line(
                    1,
                    &format!("assign {} = {};", emit_lvalue(&a.lhs), emit_expr(&a.rhs)),
                );
            }
            Item::Always(block) => {
                let sens = match &block.sensitivity {
                    Sensitivity::Star => "always @(*)".to_string(),
                    Sensitivity::Edges(events) => {
                        let parts: Vec<String> = events
                            .iter()
                            .map(|e| format!("{} {}", e.edge, e.signal))
                            .collect();
                        format!("always @({})", parts.join(" or "))
                    }
                };
                w.line(1, &format!("{sens} begin"));
                emit_body_lines(w, 2, &block.body);
                w.line(1, "end");
            }
            Item::Initial(block) => {
                w.line(1, "initial begin");
                emit_body_lines(w, 2, &block.body);
                w.line(1, "end");
            }
            Item::Property(p) => {
                w.line(1, &format!("property {};", p.name));
                w.line(2, &emit_property_spec(p));
                w.line(1, "endproperty");
            }
            Item::Assertion(a) => {
                let label = a
                    .label
                    .as_ref()
                    .map(|l| format!("{l}: "))
                    .unwrap_or_default();
                let target = match &a.target {
                    AssertTarget::Named(name) => name.clone(),
                    AssertTarget::Inline(p) => emit_property_spec(p),
                };
                let message = a
                    .message
                    .as_ref()
                    .map(|m| format!(" else $error(\"{m}\")"))
                    .unwrap_or_default();
                w.line(1, &format!("{label}assert property ({target}){message};"));
            }
        }
    }

    fn emit_property_spec(p: &PropertyDecl) -> String {
        let mut s = format!("@({} {}) ", p.clock.edge, p.clock.signal);
        if let Some(guard) = &p.disable_iff {
            s.push_str(&format!("disable iff ({}) ", emit_expr(guard)));
        }
        s.push_str(&emit_prop_expr(&p.body));
        s.push(';');
        s
    }

    fn emit_prop_expr(p: &PropExpr) -> String {
        match p {
            PropExpr::Expr(e) => emit_expr(e),
            PropExpr::Implication {
                antecedent,
                consequent,
                overlapping,
            } => {
                let arrow = if *overlapping { "|->" } else { "|=>" };
                format!(
                    "{} {arrow} {}",
                    emit_prop_expr(antecedent),
                    emit_prop_expr(consequent)
                )
            }
            PropExpr::Delay { lhs, cycles, rhs } => {
                let prefix = lhs
                    .as_ref()
                    .map(|l| format!("{} ", emit_prop_expr(l)))
                    .unwrap_or_default();
                format!("{prefix}##{cycles} {}", emit_prop_expr(rhs))
            }
            PropExpr::Not(inner) => format!("not ({})", emit_prop_expr(inner)),
        }
    }

    /// Emits the statements inside a `begin ... end` body without emitting the wrapper.
    fn emit_body_lines(w: &mut Writer, indent: usize, body: &Stmt) {
        match body {
            Stmt::Block { stmts, .. } => {
                for stmt in stmts {
                    emit_stmt_at(w, indent, stmt);
                }
            }
            other => emit_stmt_at(w, indent, other),
        }
    }

    fn emit_stmt_at(w: &mut Writer, indent: usize, stmt: &Stmt) {
        match stmt {
            Stmt::Block { stmts, .. } => {
                w.line(indent, "begin");
                for s in stmts {
                    emit_stmt_at(w, indent + 1, s);
                }
                w.line(indent, "end");
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => emit_if(w, indent, cond, then_branch, else_branch.as_deref(), "if"),
            Stmt::Case {
                subject,
                arms,
                default,
                ..
            } => {
                w.line(indent, &format!("case ({})", emit_expr(subject)));
                for arm in arms {
                    let labels: Vec<String> = arm.labels.iter().map(emit_expr).collect();
                    if is_simple(&arm.body) {
                        w.line(
                            indent + 1,
                            &format!("{}: {}", labels.join(", "), simple_stmt_text(&arm.body)),
                        );
                    } else {
                        w.line(indent + 1, &format!("{}: begin", labels.join(", ")));
                        emit_body_lines(w, indent + 2, &arm.body);
                        w.line(indent + 1, "end");
                    }
                }
                if let Some(d) = default {
                    if is_simple(d) {
                        w.line(indent + 1, &format!("default: {}", simple_stmt_text(d)));
                    } else {
                        w.line(indent + 1, "default: begin");
                        emit_body_lines(w, indent + 2, d);
                        w.line(indent + 1, "end");
                    }
                }
                w.line(indent, "endcase");
            }
            Stmt::Blocking { .. } | Stmt::NonBlocking { .. } | Stmt::Null => {
                w.line(indent, &simple_stmt_text(stmt));
            }
        }
    }

    fn emit_if(
        w: &mut Writer,
        indent: usize,
        cond: &Expr,
        then_branch: &Stmt,
        else_branch: Option<&Stmt>,
        keyword: &str,
    ) {
        let header = format!("{keyword} ({})", emit_expr(cond));
        if is_simple(then_branch) {
            w.line(
                indent,
                &format!("{header} {}", simple_stmt_text(then_branch)),
            );
        } else {
            w.line(indent, &format!("{header} begin"));
            emit_body_lines(w, indent + 1, then_branch);
            w.line(indent, "end");
        }
        match else_branch {
            None => {}
            Some(Stmt::If {
                cond: else_cond,
                then_branch: else_then,
                else_branch: else_else,
                ..
            }) => {
                emit_if(
                    w,
                    indent,
                    else_cond,
                    else_then,
                    else_else.as_deref(),
                    "else if",
                );
            }
            Some(other) if is_simple(other) => {
                w.line(indent, &format!("else {}", simple_stmt_text(other)));
            }
            Some(other) => {
                w.line(indent, "else begin");
                emit_body_lines(w, indent + 1, other);
                w.line(indent, "end");
            }
        }
    }

    fn is_simple(stmt: &Stmt) -> bool {
        matches!(
            stmt,
            Stmt::Blocking { .. } | Stmt::NonBlocking { .. } | Stmt::Null
        )
    }

    fn simple_stmt_text(stmt: &Stmt) -> String {
        match stmt {
            Stmt::Blocking { lhs, rhs, .. } => {
                format!("{} = {};", emit_lvalue(lhs), emit_expr(rhs))
            }
            Stmt::NonBlocking { lhs, rhs, .. } => {
                format!("{} <= {};", emit_lvalue(lhs), emit_expr(rhs))
            }
            Stmt::Null => ";".to_string(),
            _ => unreachable!("simple_stmt_text called on compound statement"),
        }
    }

    fn precedence(op: BinaryOp) -> u8 {
        match op {
            BinaryOp::LogicalOr => 1,
            BinaryOp::LogicalAnd => 2,
            BinaryOp::BitOr => 3,
            BinaryOp::BitXor => 4,
            BinaryOp::BitAnd => 5,
            BinaryOp::Eq | BinaryOp::Ne => 6,
            BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => 7,
            BinaryOp::Shl | BinaryOp::Shr => 8,
            BinaryOp::Add | BinaryOp::Sub => 9,
            BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => 10,
        }
    }

    fn expr_text(expr: &Expr, parent_prec: u8) -> String {
        match expr {
            Expr::Number(lit) => literal_text(lit),
            Expr::Ident(n) => n.clone(),
            Expr::Unary(op, inner) => {
                // Parenthesise non-primary operands both for readability and to avoid
                // token gluing (`& &x` vs `&&x`) when unary operators are nested.
                if matches!(
                    inner.as_ref(),
                    Expr::Ident(_) | Expr::Number(_) | Expr::Bit(_, _) | Expr::Part(_, _)
                ) {
                    format!("{}{}", op.symbol(), expr_text(inner, 11))
                } else {
                    format!("{}({})", op.symbol(), expr_text(inner, 0))
                }
            }
            Expr::Binary(op, lhs, rhs) => {
                let prec = precedence(*op);
                let text = format!(
                    "{} {} {}",
                    expr_text(lhs, prec),
                    op.symbol(),
                    expr_text(rhs, prec + 1)
                );
                if prec < parent_prec {
                    format!("({text})")
                } else {
                    text
                }
            }
            Expr::Ternary(cond, a, b) => {
                let text = format!(
                    "{} ? {} : {}",
                    expr_text(cond, 1),
                    expr_text(a, 0),
                    expr_text(b, 0)
                );
                if parent_prec > 0 {
                    format!("({text})")
                } else {
                    text
                }
            }
            Expr::Bit(name, idx) => format!("{name}[{}]", expr_text(idx, 0)),
            Expr::Part(name, range) => format!("{name}{range}"),
            Expr::Concat(parts) => {
                let inner: Vec<String> = parts.iter().map(|p| expr_text(p, 0)).collect();
                format!("{{{}}}", inner.join(", "))
            }
            Expr::Repeat(count, inner) => format!("{{{count}{{{}}}}}", expr_text(inner, 0)),
            Expr::Past(inner, cycles) => {
                if *cycles == 1 {
                    format!("$past({})", expr_text(inner, 0))
                } else {
                    format!("$past({}, {cycles})", expr_text(inner, 0))
                }
            }
            Expr::Rose(inner) => format!("$rose({})", expr_text(inner, 0)),
            Expr::Fell(inner) => format!("$fell({})", expr_text(inner, 0)),
            Expr::Stable(inner) => format!("$stable({})", expr_text(inner, 0)),
        }
    }

    fn literal_text(lit: &Literal) -> String {
        match (lit.width, lit.base) {
            (None, _) => format!("{}", lit.value),
            (Some(w), 'b') => format!("{w}'b{:b}", lit.value),
            (Some(w), 'h') => format!("{w}'h{:x}", lit.value),
            (Some(w), 'o') => format!("{w}'o{:o}", lit.value),
            (Some(w), _) => format!("{w}'d{}", lit.value),
        }
    }
}

/// A module and the text the flow compares its rendering with (the judge's
/// buggy source for a candidate, else the source it was parsed from).
struct Sample {
    module: Module,
    text: String,
}

fn parsed(source: &str) -> Option<Sample> {
    let module = parse_module(source).ok()?;
    let text = source.to_string();
    Some(Sample { module, text })
}

/// Every default-corpus golden and eight mutants of each.
fn corpus_samples() -> Vec<Sample> {
    let mut samples = Vec::new();
    let goldens = CorpusGenerator::new(CorpusConfig::default()).golden_designs();
    for (index, golden) in goldens.iter().enumerate() {
        let golden = parsed(&golden.source).expect("a default-corpus golden parses");
        let mutants = BugInjector::new(index as u64).inject_batch(&golden.module, 8);
        assert!(!mutants.is_empty(), "no mutant of {}", golden.module.name);
        for mutant in mutants {
            let text = golden.text.clone();
            samples.push(Sample {
                module: mutant.buggy,
                text,
            });
        }
        samples.push(golden);
    }
    samples
}

/// Every source of the fuzz corpus that parses.
fn fuzz_samples() -> Vec<Sample> {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/fuzz/corpus"));
    let cases = svfuzz::load_corpus(root).expect("the fuzz corpus loads");
    let sources = cases
        .iter()
        .flat_map(|(_, case)| [&case.source, &case.base_source]);
    sources.filter_map(|source| parsed(source)).collect()
}

/// The human cases: buggy and golden sources, and the golden fix applied to
/// the buggy one.
fn human_samples() -> Vec<Sample> {
    let mut samples = Vec::new();
    for case in human_crafted_cases() {
        samples.extend(parsed(&case.buggy_source));
        samples.extend(parsed(&case.golden_source));
        let fixed = apply_line_edit(&case.buggy_source, case.bug_line_number, &case.fixed_line);
        let module = parse_module(&fixed.expect("the golden line exists")).unwrap();
        let text = case.buggy_source.clone();
        samples.push(Sample { module, text });
    }
    samples
}

/// Every candidate the three checkpoints sample at quick scale (the
/// `experiments` seed and protocol) whose edit applies and parses, paired
/// with the buggy source the judge compares its rendering with.
fn candidate_samples() -> Vec<Sample> {
    let artifacts = train(&TrainConfig::quick(2025));
    let config = EvalConfig::quick(2025 ^ 0xE7);
    let cases = artifacts.sva_eval.all();
    let request = |entry| {
        let case = CaseInput::from_entry(entry);
        RepairRequest::new(case, config.samples, config.temperature)
    };
    let mut samples = Vec::new();
    for model in [&artifacts.base, &artifacts.sft, &artifacts.assert_solver] {
        let requests = cases.iter().map(request).collect();
        let outcomes = serve_scoped(model, config.service_config(), |service| {
            service.solve_all(requests)
        });
        for (entry, outcome) in cases.iter().zip(outcomes) {
            for response in outcome.responses.iter() {
                let edited = apply_line_edit(
                    &entry.buggy_source,
                    response.bug_line_number,
                    &response.fixed_line,
                );
                if let Some(Ok(module)) = edited.as_deref().map(parse_module) {
                    let text = entry.buggy_source.clone();
                    samples.push(Sample { module, text });
                }
            }
        }
    }
    samples
}

/// Hand-written modules reaching every form the emitter writes: both kinds
/// of parameter, nets with and without ranges, concatenation and
/// replication, nested and parenthesised operators, ternaries as operands
/// and conditions, bit and part selects, every system function, `case` arms
/// with simple and block bodies, `else if` chains and `else begin`, initial
/// blocks, named and inline properties with and without `disable iff`,
/// implications of both kinds, delays with and without a left side, `not`,
/// and assertions with and without a label or message.
const EVERY_FORM: [&str; 3] = [
    r#"module forms(input clk, input rst_n, input [3:0] a, input [3:0] b, input s, output reg [3:0] q, output reg r, output [7:0] y, output w);
  parameter W = 4;
  localparam D = 2'b10;
  wire [3:0] t, u;
  wire v;
  reg [1:0] st;
  assign y = {a, b};
  assign t = (s ? a : b) ? a + b * 4'd2 : ~(a & b);
  assign u = {2{a[1:0]}} ^ (a - (b - 4'h1)) << 1;
  assign v = !(a[0] || b[1]) && (s ? 1'b1 : a[2]);
  assign w = -a[3:2] == 2'o3 | &a;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin
      q <= 4'd0;
      r <= 1'b0;
    end else if (s) q <= a / 4'd3 % W;
    else begin
      case (st)
        2'd0, 2'd1: q <= b;
        2'd2: begin
          q <= a | b;
          r <= 1;
        end
        default: begin
          q <= q;
        end
      endcase
    end
  end
  always @(*) begin
    case (a)
      4'd0: st = 0;
      default: st = D;
    endcase
    if (a >= b) st[0] = a < b;
    else if (a <= b) st[1] = a > b;
    else st = a != b;
  end
  initial begin
    r = 0;
  end
  property p1;
    @(posedge clk) disable iff (!rst_n) $rose(s) |-> ##2 q == $past(a, 2);
  endproperty
  property p2;
    @(negedge clk) s ##1 $fell(r) |=> $stable(q) && $past(r);
  endproperty
  a1: assert property (p1) else $error("p1 failed");
  assert property (p2);
  a3: assert property (@(posedge clk) not (s |-> r));
endmodule
"#,
    "module empty_ports(); endmodule",
    "module m(input a, output b); assign b = a >> 1; endmodule",
];

/// `text` one byte short, one byte long, with its last byte changed, empty,
/// and with CRLF line ends.
fn near_misses(text: &str) -> Vec<String> {
    let mut out = vec![
        format!("{text}\n"),
        String::new(),
        text.replace('\n', "\r\n"),
    ];
    if let Some(last) = text.chars().last() {
        let cut = &text[..text.len() - last.len_utf8()];
        let changed = if last == 'x' { 'y' } else { 'x' };
        out.push(cut.to_string());
        out.push(format!("{cut}{changed}"));
    }
    out
}

fn check(set: &str, samples: &[Sample]) -> usize {
    assert!(!samples.is_empty(), "{set}: no modules");
    let mut matches = 0;
    for sample in samples {
        let expected = oracle::emit_module(&sample.module);
        let emitted = emit_module(&sample.module);
        assert_eq!(emitted, expected, "{set}: {}", sample.module.name);
        let mut texts = vec![sample.text.clone(), expected.clone()];
        texts.extend(near_misses(&sample.text));
        texts.extend(near_misses(&expected));
        for text in &texts {
            let equal = expected == *text;
            assert_eq!(
                emits_as(&sample.module, text),
                equal,
                "{set}: {} against {text:?}",
                sample.module.name
            );
            matches += usize::from(equal);
        }
    }
    matches
}

#[test]
fn the_emitter_writes_the_oracle_bytes_over_corpus_goldens_and_mutants() {
    let samples = corpus_samples();
    assert!(samples.len() > 64 * 2, "{} modules", samples.len());
    // Every golden is in canonical form, so its own source is matched too.
    assert!(check("corpus", &samples) > samples.len());
}

#[test]
fn the_emitter_writes_the_oracle_bytes_over_the_fuzz_corpus() {
    check("fuzz", &fuzz_samples());
}

#[test]
fn the_emitter_writes_the_oracle_bytes_over_the_human_cases() {
    check("human", &human_samples());
}

#[test]
fn the_emitter_writes_the_oracle_bytes_over_every_quick_scale_candidate() {
    let samples = candidate_samples();
    assert!(samples.len() > 100, "{} candidates", samples.len());
    check("candidates", &samples);
}

#[test]
fn the_emitter_writes_the_oracle_bytes_for_every_form() {
    let samples: Vec<Sample> = (EVERY_FORM.iter())
        .map(|source| parsed(source).unwrap_or_else(|| panic!("{source} parses")))
        .collect();
    check("every form", &samples);
}

#[test]
fn emits_as_answers_every_edge_text() {
    let module = parse_module("module m(input a, output b); assign b = a; endmodule").unwrap();
    let text = emit_module(&module);
    assert!(emits_as(&module, &text));
    for miss in near_misses(&text) {
        assert!(!emits_as(&module, &miss), "{miss:?}");
    }
}
