//! Verilog tokenizer and interpolated bigram language model.
//!
//! The language model is the reproduction's continual-pretraining stage: it is trained
//! on the *Verilog-PT* text (specifications, code, failure analyses) and provides
//! per-line surprisal features to the repair policy, standing in for the next-token
//! knowledge a pretrained transformer would contribute.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::OnceLock;

/// Multi-character operators, longest first: a token is the first of these
/// the text continues with.
const OPERATORS: [&str; 14] = [
    "|->", "|=>", "<<<", ">>>", "===", "<=", ">=", "==", "!=", "&&", "||", "<<", ">>", "##",
];

fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '\''
}

/// The tokens of `text` as slices of it, in order ([`tokenize`] without an
/// allocation per token).
pub(crate) fn tokens(text: &str) -> impl Iterator<Item = &str> {
    let mut rest = text;
    std::iter::from_fn(move || {
        rest = rest.trim_start();
        let first = rest.chars().next()?;
        let len = if is_word_char(first) {
            rest.find(|c| !is_word_char(c)).unwrap_or(rest.len())
        } else {
            (OPERATORS.iter().find(|op| rest.starts_with(*op)))
                .map_or(first.len_utf8(), |op| op.len())
        };
        let (token, tail) = rest.split_at(len);
        rest = tail;
        Some(token)
    })
}

/// Splits Verilog/spec text into word and operator tokens.
///
/// Identifiers, numbers and multi-character operators each become one token;
/// whitespace is discarded.
pub fn tokenize(text: &str) -> Vec<String> {
    tokens(text).map(str::to_string).collect()
}

/// An interpolated bigram language model with add-k smoothing.
///
/// The counts are keyed by token text: that is what training updates and what
/// serialisation (hence a model's identity) writes.  Lookups go through a
/// frozen index instead — token ids, unigram counts by id, bigram counts by
/// packed id pair — built on the first lookup after training or
/// deserialisation and dropped by [`NgramLm::train_text`].  The index is not
/// serialised, and equality ignores it.
#[derive(Clone, Default, Serialize, Deserialize)]
pub(crate) struct NgramLm {
    unigrams: BTreeMap<String, u64>,
    bigrams: BTreeMap<(String, String), u64>,
    total_tokens: u64,
    #[serde(skip)]
    index: OnceLock<FrozenLm>,
}

impl PartialEq for NgramLm {
    fn eq(&self, other: &Self) -> bool {
        self.unigrams == other.unigrams
            && self.bigrams == other.bigrams
            && self.total_tokens == other.total_tokens
    }
}

impl fmt::Debug for NgramLm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NgramLm")
            .field("unigrams", &self.unigrams)
            .field("bigrams", &self.bigrams)
            .field("total_tokens", &self.total_tokens)
            .finish()
    }
}

impl NgramLm {
    /// Creates an empty (untrained) model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` once some text has been ingested.
    pub(crate) fn is_trained(&self) -> bool {
        self.total_tokens > 0
    }

    /// Number of distinct tokens seen.
    pub(crate) fn vocab_size(&self) -> usize {
        self.unigrams.len()
    }

    /// Ingests one text into the counts.
    pub(crate) fn train_text(&mut self, text: &str) {
        self.index = OnceLock::new();
        let tokens: Vec<&str> = tokens(text).collect();
        let mut key = (String::new(), String::new());
        for window in tokens.windows(2) {
            set_key(&mut key, window[0], window[1]);
            match self.bigrams.get_mut(&key) {
                Some(count) => *count += 1,
                None => {
                    self.bigrams.insert(key.clone(), 1);
                }
            }
        }
        for token in tokens {
            match self.unigrams.get_mut(token) {
                Some(count) => *count += 1,
                None => {
                    self.unigrams.insert(token.to_string(), 1);
                }
            }
            self.total_tokens += 1;
        }
    }

    /// The frozen lookup index of the current counts, built on first use.
    pub(crate) fn frozen(&self) -> &FrozenLm {
        self.index.get_or_init(|| FrozenLm::new(self))
    }
}

/// Overwrites the bigram key buffer with `(prev, next)`, reusing its capacity.
fn set_key(key: &mut (String, String), prev: &str, next: &str) {
    key.0.clear();
    key.0.push_str(prev);
    key.1.clear();
    key.1.push_str(next);
}

/// Add-k smoothing constant of both estimates.
const K: f64 = 0.05;

/// An [`NgramLm`]'s counts re-keyed for lookup: each token its `u32` id (its
/// rank in the unigram map), unigram counts by id and bigram counts by the
/// packed id pair, with the smoothing denominators computed once.  A token the
/// model never saw has no id and counts zero everywhere.  Its answers are the
/// `String`-keyed lookup's, bit for bit: the same arithmetic on the same
/// counts in the same order.
#[derive(Clone)]
pub(crate) struct FrozenLm {
    trained: bool,
    ids: HashMap<String, u32>,
    unigrams: Vec<u64>,
    bigrams: HashMap<u64, u64>,
    /// `k · vocabulary`, the bigram estimate's smoothing mass.
    smoothing: f64,
    /// `tokens + k · vocabulary`, the unigram estimate's denominator.
    unigram_denominator: f64,
}

impl FrozenLm {
    fn new(lm: &NgramLm) -> Self {
        let mut ids = HashMap::with_capacity(lm.unigrams.len());
        let mut unigrams = Vec::with_capacity(lm.unigrams.len());
        for (id, (token, &count)) in lm.unigrams.iter().enumerate() {
            ids.insert(token.clone(), id as u32);
            unigrams.push(count);
        }
        let mut bigrams = HashMap::with_capacity(lm.bigrams.len());
        for ((prev, next), &count) in &lm.bigrams {
            // Training counts each token of a bigram as a unigram too; a model
            // read from elsewhere may not, and its stray tokens count zero.
            let mut id = |token: &String| match ids.get(token.as_str()) {
                Some(&id) => id,
                None => {
                    let id = unigrams.len() as u32;
                    unigrams.push(0);
                    ids.insert(token.clone(), id);
                    id
                }
            };
            let key = pack(id(prev), id(next));
            bigrams.insert(key, count);
        }
        let vocab = lm.vocab_size().max(1) as f64;
        Self {
            trained: lm.is_trained(),
            ids,
            unigrams,
            bigrams,
            smoothing: K * vocab,
            unigram_denominator: lm.total_tokens as f64 + K * vocab,
        }
    }

    /// The id of `token`, `None` when the model never saw it.
    fn id(&self, token: &str) -> Option<u32> {
        self.ids.get(token).copied()
    }

    fn count(&self, id: Option<u32>) -> u64 {
        id.map_or(0, |id| self.unigrams[id as usize])
    }

    /// Interpolated probability of token `next` following token `prev`, by id.
    fn probability(&self, prev: Option<u32>, next: Option<u32>) -> f64 {
        let unigram_count = self.count(next) as f64;
        let unigram = (unigram_count + K) / self.unigram_denominator;
        let prev_count = self.count(prev) as f64;
        let bigram_count = match (prev, next) {
            (Some(prev), Some(next)) => self.bigrams.get(&pack(prev, next)).copied(),
            _ => None,
        };
        let bigram = (bigram_count.unwrap_or(0) as f64 + K) / (prev_count + self.smoothing);
        0.7 * bigram + 0.3 * unigram
    }

    /// Mean negative log-probability per token of a line (its surprisal): one
    /// tokenisation, one id lookup per token, and the terms summed in token
    /// order.  An untrained model, or a line of fewer than two tokens, scores
    /// a constant, so the feature is uninformative rather than misleading.
    pub(crate) fn surprisal(&self, line: &str) -> f64 {
        if !self.trained {
            return 1.0;
        }
        let mut ids = tokens(line).map(|token| self.id(token));
        let Some(mut prev) = ids.next() else {
            return 1.0;
        };
        let mut total = 0.0;
        let mut count = 0usize;
        for next in ids {
            total += -self.probability(prev, next).ln();
            count += 1;
            prev = next;
        }
        if count == 0 {
            return 1.0;
        }
        total / count as f64
    }
}

fn pack(prev: u32, next: u32) -> u64 {
    u64::from(prev) << 32 | u64::from(next)
}

/// The `String`-keyed lookup the frozen index replaced, kept as its oracle.
#[cfg(test)]
impl NgramLm {
    /// [`FrozenLm::probability`] by token text, looking the bigram up through
    /// `key`, a buffer the caller reuses across lookups.
    fn probability_keyed(&self, prev: &str, next: &str, key: &mut (String, String)) -> f64 {
        let k = 0.05;
        let vocab = self.vocab_size().max(1) as f64;
        let unigram_count = *self.unigrams.get(next).unwrap_or(&0) as f64;
        let unigram = (unigram_count + k) / (self.total_tokens as f64 + k * vocab);
        let prev_count = *self.unigrams.get(prev).unwrap_or(&0) as f64;
        set_key(key, prev, next);
        let bigram_count = *self.bigrams.get(key).unwrap_or(&0) as f64;
        let bigram = (bigram_count + k) / (prev_count + k * vocab);
        0.7 * bigram + 0.3 * unigram
    }

    /// [`FrozenLm::surprisal`] over [`NgramLm::probability_keyed`].
    pub(crate) fn surprisal_keyed(&self, line: &str) -> f64 {
        if !self.is_trained() {
            return 1.0;
        }
        let mut tokens = tokens(line);
        let Some(mut prev) = tokens.next() else {
            return 1.0;
        };
        let mut key = (String::new(), String::new());
        let mut total = 0.0;
        let mut count = 0usize;
        for next in tokens {
            total += -self.probability_keyed(prev, next, &mut key).ln();
            count += 1;
            prev = next;
        }
        if count == 0 {
            return 1.0;
        }
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The tokenizer before [`tokens`]: one `Vec<char>` per text and one
    /// `String` per token, kept verbatim as the oracle of the slice scan.
    fn tokenize_oracle(text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        let mut current = String::new();
        let flush = |current: &mut String, tokens: &mut Vec<String>| {
            if !current.is_empty() {
                tokens.push(std::mem::take(current));
            }
        };
        let chars: Vec<char> = text.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            if c.is_alphanumeric() || c == '_' || c == '\'' {
                current.push(c);
                i += 1;
                continue;
            }
            flush(&mut current, &mut tokens);
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            // Greedy two/three-character operators.
            let two: String = chars[i..(i + 2).min(chars.len())].iter().collect();
            let three: String = chars[i..(i + 3).min(chars.len())].iter().collect();
            if ["|->", "|=>", "<<<", ">>>", "==="].contains(&three.as_str()) {
                tokens.push(three);
                i += 3;
            } else if ["<=", ">=", "==", "!=", "&&", "||", "<<", ">>", "##"].contains(&two.as_str())
            {
                tokens.push(two);
                i += 2;
            } else {
                tokens.push(c.to_string());
                i += 1;
            }
        }
        flush(&mut current, &mut tokens);
        tokens
    }

    /// Training before the reused key buffer, over the oracle tokenizer.
    fn train_text_oracle(lm: &mut NgramLm, text: &str) {
        let tokens = tokenize_oracle(text);
        for window in tokens.windows(2) {
            *lm.bigrams
                .entry((window[0].clone(), window[1].clone()))
                .or_insert(0) += 1;
        }
        for token in tokens {
            *lm.unigrams.entry(token).or_insert(0) += 1;
            lm.total_tokens += 1;
        }
    }

    /// Surprisal before the reused key buffer, over the oracle tokenizer.
    fn surprisal_oracle(lm: &NgramLm, line: &str) -> f64 {
        if !lm.is_trained() {
            return 1.0;
        }
        let tokens = tokenize_oracle(line);
        if tokens.len() < 2 {
            return 1.0;
        }
        let mut total = 0.0;
        let mut count = 0usize;
        for window in tokens.windows(2) {
            let key = &mut Default::default();
            total += -lm.probability_keyed(&window[0], &window[1], key).ln();
            count += 1;
        }
        total / count.max(1) as f64
    }

    fn default_corpus_texts() -> Vec<String> {
        let corpus = svgen::CorpusGenerator::new(svgen::CorpusConfig::default()).generate();
        let stage1 = svdata::stage1_filter(&corpus);
        stage1.verilog_pt.iter().map(|entry| entry.text()).collect()
    }

    /// Random texts over an alphabet dense in operator prefixes, word
    /// characters, whitespace and multi-byte characters, with operators and
    /// their prefixes placed at the very end of a text.
    fn random_texts(seed: u64, count: usize) -> Vec<String> {
        const ALPHABET: [char; 22] = [
            'a', 'b', '_', '\'', '1', ' ', '\t', '\n', '|', '-', '>', '=', '<', '!', '&', '#', 'é',
            'λ', '€', '\u{3000}', '\u{301}', '🦀',
        ];
        const TAILS: [&str; 9] = ["", "|->", "|-", "|", "===", "==", "<<<", "<<", "##"];
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let len = rng.gen_range(0..24usize);
                let mut text: String = (0..len)
                    .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
                    .collect();
                text.push_str(TAILS[rng.gen_range(0..TAILS.len())]);
                text
            })
            .collect()
    }

    #[test]
    fn tokens_match_the_oracle_over_the_default_corpus() {
        let texts = default_corpus_texts();
        assert!(texts.len() > 10, "{} Verilog-PT texts", texts.len());
        for text in &texts {
            assert_eq!(tokenize(text), tokenize_oracle(text), "{text:?}");
        }
    }

    #[test]
    fn tokens_match_the_oracle_over_random_texts() {
        for text in random_texts(0x70C3, 20_000) {
            assert_eq!(tokenize(&text), tokenize_oracle(&text), "{text:?}");
        }
    }

    #[test]
    fn training_and_surprisal_match_the_oracle() {
        let texts = default_corpus_texts();
        let (mut lm, mut oracle) = (NgramLm::new(), NgramLm::new());
        for text in texts.iter().chain(&random_texts(0x5EED, 500)) {
            lm.train_text(text);
            train_text_oracle(&mut oracle, text);
        }
        assert_eq!(lm, oracle);
        let lines = texts
            .iter()
            .flat_map(|text| text.lines().map(str::to_string));
        for line in lines.chain(random_texts(0x11E5, 2_000)) {
            let (new, old) = (
                lm.frozen().surprisal(&line),
                surprisal_oracle(&oracle, &line),
            );
            assert_eq!(new.to_bits(), old.to_bits(), "{line:?}");
        }
    }

    /// Lines of seeded random tokens: words and operators the model saw, words
    /// it did not (some of them multi-byte) and stray punctuation, joined by
    /// spaces or by nothing.
    fn token_soups(lm: &NgramLm, seed: u64, count: usize) -> Vec<String> {
        const UNSEEN: [&str; 8] = ["zz_oov", "q9q", "λx", "_", "@@", "é", "1'b", "🦀"];
        let seen: Vec<&String> = lm.unigrams.keys().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let len = rng.gen_range(0..12usize);
                let mut line = String::new();
                for _ in 0..len {
                    if rng.gen_bool(0.7) {
                        line.push_str(seen[rng.gen_range(0..seen.len())]);
                    } else {
                        line.push_str(UNSEEN[rng.gen_range(0..UNSEEN.len())]);
                    }
                    if rng.gen_bool(0.8) {
                        line.push(' ');
                    }
                }
                line
            })
            .collect()
    }

    /// The frozen index against the `String`-keyed lookup it replaced, bit for
    /// bit, under a model trained on the default corpus, the pretrained model of
    /// `plan::tests` and an untrained model: every line of the default corpus
    /// and of the human cases, every candidate line and fix-candidate text of
    /// `plan::tests`' cases, random token soups, and empty and one-token lines.
    #[test]
    fn surprisal_through_the_frozen_index_matches_the_keyed_lookup() {
        let texts = default_corpus_texts();
        let mut corpus_lm = NgramLm::new();
        for text in &texts {
            corpus_lm.train_text(text);
        }
        let fixture = crate::plan::tests::fixture();
        let pretrained = fixture.pretrained.language_model();
        assert!(pretrained.is_trained());

        let mut lines: Vec<String> = Vec::new();
        let human = assertsolver::human_crafted_cases();
        let human_texts = human
            .iter()
            .flat_map(|e| [&e.spec, &e.buggy_source, &e.logs, &e.golden_source]);
        for text in texts.iter().chain(human_texts) {
            lines.extend(text.lines().map(str::to_string));
        }
        for case in &fixture.cases {
            let plan = crate::plan::SamplingPlan::new(case, pretrained);
            for line in 0..plan.lines.texts.len() {
                lines.push(plan.lines.texts[line].clone());
                lines.extend(plan.fixes(line).texts.iter().cloned());
            }
        }
        lines.extend(token_soups(&corpus_lm, 0x50C9, 3_000));
        lines.extend(token_soups(pretrained, 0x50CA, 3_000));
        lines.extend(["", " ", "\t", "a", "always", "<=", "zz_oov", "🦀"].map(String::from));

        let untrained = NgramLm::new();
        for lm in [&corpus_lm, pretrained, &untrained] {
            for line in &lines {
                let (frozen, keyed) = (lm.frozen().surprisal(line), lm.surprisal_keyed(line));
                assert_eq!(frozen.to_bits(), keyed.to_bits(), "{line:?}");
            }
        }
        assert!(lines.len() > 10_000, "{} lines", lines.len());
    }

    /// Retraining drops the index: the next lookup sees the new counts.
    #[test]
    fn training_after_a_lookup_refreezes_the_index() {
        let mut lm = NgramLm::new();
        lm.train_text("a b a b");
        let before = lm.frozen().surprisal("a c");
        lm.train_text("a c a c a c");
        let after = lm.frozen().surprisal("a c");
        assert!(after < before, "before={before} after={after}");
        assert_eq!(after.to_bits(), lm.surprisal_keyed("a c").to_bits());
        let frozen = lm.frozen();
        assert_eq!(
            frozen.probability(frozen.id("a"), frozen.id("c")).to_bits(),
            lm.probability_keyed("a", "c", &mut Default::default())
                .to_bits()
        );
    }

    #[test]
    fn tokenizer_splits_operators_and_words() {
        let tokens = tokenize("if (!rst_n) cnt <= cnt + 2'd1;");
        assert!(tokens.contains(&"rst_n".to_string()));
        assert!(tokens.contains(&"<=".to_string()));
        assert!(tokens.contains(&"2'd1".to_string()));
        assert!(tokens.contains(&"!".to_string()));
        let sva = tokenize("end_cnt |-> ##1 valid_out == 1");
        assert!(sva.contains(&"|->".to_string()));
        assert!(sva.contains(&"##".to_string()));
        assert!(sva.contains(&"==".to_string()));
    }

    #[test]
    fn trained_model_prefers_seen_patterns() {
        let mut lm = NgramLm::new();
        for _ in 0..20 {
            lm.train_text(
                "always @(posedge clk or negedge rst_n) begin if (!rst_n) q <= 0; else q <= d; end",
            );
        }
        assert!(lm.is_trained());
        let familiar = lm.frozen().surprisal("if (!rst_n) q <= 0;");
        let weird = lm.frozen().surprisal("zz9 %% qq7 ^^ @@");
        assert!(familiar < weird, "familiar={familiar} weird={weird}");
    }

    #[test]
    fn untrained_model_is_neutral() {
        let lm = NgramLm::new();
        assert_eq!(lm.frozen().surprisal("anything at all"), 1.0);
        assert!(!lm.is_trained());
    }

    #[test]
    fn probabilities_are_normalised_enough() {
        let mut lm = NgramLm::new();
        lm.train_text("a b a b a b a c");
        let frozen = lm.frozen();
        let p_ab = frozen.probability(frozen.id("a"), frozen.id("b"));
        let p_ac = frozen.probability(frozen.id("a"), frozen.id("c"));
        assert!(p_ab > p_ac);
        assert!(p_ab <= 1.0 && p_ac > 0.0);
    }
}
