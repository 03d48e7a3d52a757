//! Text rendering of the paper's tables and figures.
//!
//! Every experiment binary in `assertsolver-bench` formats its output through these
//! helpers so the regenerated tables share one look and can be diffed run-to-run.

use crate::evaluate::ModelEvaluation;
use crate::passk::PassK;

/// Renders a Table-III style comparison (rows = models, columns = pass@1 / pass@5).
pub fn render_passk_table(title: &str, rows: &[(String, PassK)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<28} {:>10} {:>10}\n",
        "Model", "pass@1(%)", "pass@5(%)"
    ));
    for (name, passk) in rows {
        out.push_str(&format!(
            "{:<28} {:>10.2} {:>10.2}\n",
            name,
            passk.pass1_percent(),
            passk.pass5_percent()
        ));
    }
    out
}

/// Renders a Table-IV style comparison with machine / human / combined columns.
pub fn render_split_table(title: &str, rows: &[(String, PassK, PassK, PassK)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<28} {:>22} {:>22} {:>22}\n",
        "Model", "SVA-Eval-Machine", "SVA-Eval-Human", "SVA-Eval"
    ));
    out.push_str(&format!(
        "{:<28} {:>10} {:>11} {:>10} {:>11} {:>10} {:>11}\n",
        "", "pass@1(%)", "pass@5(%)", "pass@1(%)", "pass@5(%)", "pass@1(%)", "pass@5(%)"
    ));
    for (name, machine, human, all) in rows {
        out.push_str(&format!(
            "{:<28} {:>10.2} {:>11.2} {:>10.2} {:>11.2} {:>10.2} {:>11.2}\n",
            name,
            machine.pass1_percent(),
            machine.pass5_percent(),
            human.pass1_percent(),
            human.pass5_percent(),
            all.pass1_percent(),
            all.pass5_percent()
        ));
    }
    out
}

/// Renders a Fig.-3 style histogram of the number of correct answers per case.
pub fn render_histogram(
    title: &str,
    evaluations: &[(&str, &ModelEvaluation)],
    samples: usize,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!("{:<6}", "c"));
    for (name, _) in evaluations {
        out.push_str(&format!(" {:>16}", name));
    }
    out.push('\n');
    for c in 0..=samples {
        out.push_str(&format!("{:<6}", c));
        for (_, eval) in evaluations {
            let hist = eval.histogram(samples);
            out.push_str(&format!(" {:>16}", hist[c]));
        }
        out.push('\n');
    }
    out
}

/// Renders a Fig.-4/Fig.-5 style grouped breakdown: pass@k per bug type and per
/// code-length interval for several models.
pub fn render_breakdown(
    title: &str,
    evaluations: &[(&str, &ModelEvaluation)],
    k_label: &str,
    select: impl Fn(&PassK) -> f64,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title} ({k_label}, %)\n"));
    // Bug types.
    out.push_str(&format!("{:<14}", "Bug type"));
    for (name, _) in evaluations {
        out.push_str(&format!(" {:>16}", name));
    }
    out.push('\n');
    for label in svmutate::TABLE1_LABELS {
        out.push_str(&format!("{:<14}", label));
        for (_, eval) in evaluations {
            let value = eval
                .by_bug_type()
                .get(label)
                .map(|p| select(p) * 100.0)
                .unwrap_or(f64::NAN);
            out.push_str(&format!(" {:>16.2}", value));
        }
        out.push('\n');
    }
    // Length bins.
    out.push_str(&format!("{:<14}", "Length"));
    for (name, _) in evaluations {
        out.push_str(&format!(" {:>16}", name));
    }
    out.push('\n');
    for bin in svgen::LENGTH_BINS {
        out.push_str(&format!("{:<14}", bin));
        for (_, eval) in evaluations {
            let value = eval
                .by_length_bin()
                .into_iter()
                .find(|(name, _)| name == bin)
                .map(|(_, p)| select(&p) * 100.0)
                .unwrap_or(f64::NAN);
            out.push_str(&format!(" {:>16.2}", value));
        }
        out.push('\n');
    }
    out
}

/// Renders the Table-II style distribution of a dataset.
pub fn render_distribution(title: &str, rows: &[(&str, svdata::Distribution)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!("{:<12}", "Dataset"));
    for bin in svgen::LENGTH_BINS {
        out.push_str(&format!(" {:>12}", bin));
    }
    out.push_str(&format!(" {:>8}\n", "total"));
    for (name, dist) in rows {
        out.push_str(&format!("{:<12}", name));
        for count in dist.per_length_bin {
            out.push_str(&format!(" {:>12}", count));
        }
        out.push_str(&format!(" {:>8}\n", dist.total));
    }
    out.push_str(&format!("{:<12}", "Bug type"));
    for label in svmutate::TABLE1_LABELS {
        out.push_str(&format!(" {:>9}", label));
    }
    out.push('\n');
    for (name, dist) in rows {
        out.push_str(&format!("{:<12}", name));
        for label in svmutate::TABLE1_LABELS {
            out.push_str(&format!(
                " {:>9}",
                dist.per_bug_type.get(label).copied().unwrap_or(0)
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passk_table_formats_rows() {
        let rows = vec![
            (
                "Base model".to_string(),
                PassK {
                    pass1: 0.04,
                    pass5: 0.15,
                    problems: 10,
                },
            ),
            (
                "AssertSolver".to_string(),
                PassK {
                    pass1: 0.88,
                    pass5: 0.9,
                    problems: 10,
                },
            ),
        ];
        let table = render_passk_table("Table III", &rows);
        assert!(table.contains("Table III"));
        assert!(table.contains("AssertSolver"));
        assert!(table.contains("88.00"));
    }

    #[test]
    fn split_table_has_three_column_groups() {
        let p = PassK {
            pass1: 0.5,
            pass5: 0.6,
            problems: 4,
        };
        let table = render_split_table("Table IV", &[("M".to_string(), p, p, p)]);
        assert!(table.contains("SVA-Eval-Machine"));
        assert!(table.contains("SVA-Eval-Human"));
        assert_eq!(table.matches("50.00").count(), 3);
    }

    #[test]
    fn histogram_has_samples_plus_one_rows() {
        let eval = ModelEvaluation {
            model: "m".into(),
            results: vec![],
        };
        let text = render_histogram("Fig 3", &[("m", &eval)], 20);
        assert_eq!(text.lines().count(), 2 + 21);
    }

    #[test]
    fn distribution_table_mentions_all_bins() {
        let dist = svdata::Distribution::default();
        let text = render_distribution("Table II", &[("SVA-Bug", dist)]);
        for bin in svgen::LENGTH_BINS {
            assert!(text.contains(bin));
        }
        assert!(text.contains("Non_cond"));
    }
}
