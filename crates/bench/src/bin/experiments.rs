//! `experiments <name>… | all` — regenerates the tables and figures of the
//! AssertSolver paper.  One training run and one evaluation of every model
//! serve all the names given, printed in the order given.
//!
//! Exit status: 0 ok, 2 usage (no name, or one that is not an experiment).

use assertsolver_bench::{ExperimentSuite, Scale};
use std::process::ExitCode;

type Render = fn(&ExperimentSuite) -> String;

const EXPERIMENTS: [(&str, Render); 8] = [
    ("table1", ExperimentSuite::table1),
    ("table2", ExperimentSuite::table2),
    ("table3", ExperimentSuite::table3),
    ("table4", ExperimentSuite::table4),
    ("fig3", ExperimentSuite::fig3),
    ("fig4", ExperimentSuite::fig4),
    ("fig5", ExperimentSuite::fig5),
    ("all", ExperimentSuite::all),
];

fn main() -> ExitCode {
    let lookup = |name: String| EXPERIMENTS.iter().find(|(known, _)| *known == name);
    let chosen: Option<Vec<_>> = std::env::args().skip(1).map(lookup).collect();
    let Some(chosen) = chosen.filter(|chosen| !chosen.is_empty()) else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: experiments <{}>...", names.join("|"));
        return ExitCode::from(2);
    };
    let suite = ExperimentSuite::new(Scale::from_env(), 2025);
    for (_, render) in chosen {
        println!("{}", render(&suite));
    }
    ExitCode::SUCCESS
}
