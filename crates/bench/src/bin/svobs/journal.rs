//! `svobs record` and `svobs replay`: byte-deterministic session journals.
//!
//! Journal bytes are a pure function of `(model, corpus, protocol)`: a replay
//! passes at any `ASSERTSOLVER_DRIVERS` count and with warm or cold
//! caches, and the exit status is the verdict, so CI can chain
//! `svobs record … && svobs replay …`.

use crate::{Failure, Flags, Outcome, Quick};
use assertsolver::{EvalConfig, Evaluation, JournalManifest};
use std::path::Path;
use svmodel::RepairModel;
use svserve::{parse_journal, write_journal};

/// The tiny pipeline whose machine-generated cases precede the human-crafted
/// ones in a recorded corpus.
const PIPELINE_SEED: u64 = 31;

/// `svobs record` — runs a quick-protocol evaluation with journaling on and
/// writes the rendered journal (header manifest, one sorted record per judged
/// case, the serialized `ModelEvaluation` payload, checksummed footer) to
/// `--out`.
/// The manifest carries *rebuild tags* — recipes for reconstructing the exact
/// model (`base:<seed>`) and corpus (`tiny:<seed>+human:<limit>`) — plus
/// content fingerprints pinning them.
pub fn record(mut flags: Flags) -> Outcome {
    let (mut seed, mut limit) = (9u64, 6usize);
    let mut out: Option<String> = None;
    while let Some(flag) = flags.token() {
        match flag.as_str() {
            "--out" => out = Some(flags.value(&flag)?),
            "--seed" => seed = flags.value(&flag)?,
            "--limit" => limit = flags.value(&flag)?,
            _ => return Err(Flags::unexpected(&flag)),
        }
    }
    let out = out.ok_or_else(|| Failure::Usage("record needs --out PATH".to_string()))?;
    let quick = Quick::new(seed, limit, Some(PIPELINE_SEED))?;
    let manifest = JournalManifest::for_protocol(
        &format!("base:{seed}"),
        &format!("tiny:{PIPELINE_SEED}+human:{limit}"),
        &quick.model.identity(),
        &quick.entries,
        &quick.config,
    );
    let run = Evaluation::new(&quick.model, &quick.entries, &quick.config)
        .journal(&manifest)
        .run();
    let rendered = run.journal.expect("the journal is on");
    write_journal(Path::new(&out), &rendered)
        .map_err(|err| format!("cannot write {out}: {err}"))?;
    println!(
        "svobs record: recorded {} cases ({} bytes, pass@1 {:.1}%) -> {out}",
        quick.entries.len(),
        rendered.len(),
        run.evaluation.passk().pass1_percent(),
    );
    Ok(())
}

/// The fixture a manifest's rebuild tags describe, with the manifest's
/// sampling knobs on the quick protocol's bounded check.  The driver count
/// stays at the environment-resolved default — it must not change journal
/// bytes.
fn quick_from_manifest(manifest: &JournalManifest) -> Result<Quick, Failure> {
    let tags = || {
        let model_seed = manifest.model_tag.strip_prefix("base:")?.parse().ok()?;
        let corpus = manifest.corpus_tag.strip_prefix("tiny:")?;
        let (pipeline_seed, limit) = corpus.split_once("+human:")?;
        Some((model_seed, pipeline_seed.parse().ok()?, limit.parse().ok()?))
    };
    let (model_seed, pipeline_seed, limit) = tags().ok_or_else(|| {
        format!(
            "unknown rebuild tags {:?} and {:?} (expected base:<seed> and tiny:<seed>+human:<limit>)",
            manifest.model_tag, manifest.corpus_tag
        )
    })?;
    Ok(Quick {
        config: EvalConfig {
            samples: manifest.samples as usize,
            temperature: manifest.temperature_milli as f64 / 1000.0,
            ..EvalConfig::quick(manifest.seed)
        },
        ..Quick::new(model_seed, limit, Some(pipeline_seed))?
    })
}

/// `svobs replay` — parses a recorded journal, rebuilds the model, corpus and
/// protocol from the manifest (refusing on any fingerprint mismatch),
/// re-drives the whole evaluation through the engine, and asserts the
/// re-rendered journal is **byte-identical** to the file — which also proves
/// the embedded `ModelEvaluation` payload matched.
pub fn replay(mut flags: Flags) -> Outcome {
    let path = flags
        .token()
        .ok_or_else(|| Failure::Usage("replay needs a journal path".to_string()))?;
    if let Some(extra) = flags.token() {
        return Err(Flags::unexpected(&extra));
    }
    let text =
        std::fs::read_to_string(&path).map_err(|err| format!("cannot read {path}: {err}"))?;
    let parsed = parse_journal(&text)?;
    let manifest = JournalManifest::parse(&parsed.header.manifest)?;
    if manifest.model_tag.is_empty() || manifest.corpus_tag.is_empty() {
        return Err(Failure::Runtime(
            "record-only journal (empty rebuild tags); record one with `svobs record`".to_string(),
        ));
    }

    // The rebuilt manifest carries the re-derived model identity, corpus
    // fingerprint and protocol knobs: any one differing refuses the replay.
    let quick = quick_from_manifest(&manifest)?;
    let rebuilt = JournalManifest::for_protocol(
        &manifest.model_tag,
        &manifest.corpus_tag,
        &quick.model.identity(),
        &quick.entries,
        &quick.config,
    );
    if rebuilt != manifest {
        return Err(Failure::Runtime(format!(
            "manifest rebuilt from the tags differs from the journaled one (model, corpus or \
             protocol drift?)\n  journal: {}\n  rebuilt: {}",
            manifest.render(),
            rebuilt.render()
        )));
    }

    let run = Evaluation::new(&quick.model, &quick.entries, &quick.config)
        .journal(&manifest)
        .run();
    let rendered = run.journal.expect("the journal is on");
    if rendered != text {
        let agreeing = rendered
            .lines()
            .zip(text.lines())
            .take_while(|(a, b)| a == b);
        let diverged = agreeing.count() + 1;
        return Err(Failure::Runtime(format!(
            "replay diverged: re-driven journal is not byte-identical to {path} \
             (first difference on line {diverged})"
        )));
    }
    println!(
        "svobs replay: replayed {path} ({} records, {} bytes) byte-identical",
        parsed.footer.events,
        text.len()
    );
    Ok(())
}
