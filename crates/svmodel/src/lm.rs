//! Verilog tokenizer and interpolated bigram language model.
//!
//! The language model is the reproduction's continual-pretraining stage: it is trained
//! on the *Verilog-PT* text (specifications, code, failure analyses) and provides
//! per-line surprisal features to the repair policy, standing in for the next-token
//! knowledge a pretrained transformer would contribute.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NgramLm {
    unigrams: BTreeMap<String, u64>,
    bigrams: BTreeMap<(String, String), u64>,
    total_tokens: u64,
}

impl NgramLm {
    /// Creates an empty (untrained) model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` once some text has been ingested.
    pub fn is_trained(&self) -> bool {
        self.total_tokens > 0
    }

    /// Number of distinct tokens seen.
    pub fn vocab_size(&self) -> usize {
        self.unigrams.len()
    }

    /// Ingests one text into the counts.
    pub fn train_text(&mut self, text: &str) {
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

    /// Ingests a batch of texts.
    pub fn train<'a>(&mut self, texts: impl IntoIterator<Item = &'a str>) {
        for text in texts {
            self.train_text(text);
        }
    }

    /// Interpolated probability of `next` following `prev`.
    pub fn probability(&self, prev: &str, next: &str) -> f64 {
        self.probability_keyed(prev, next, &mut (String::new(), String::new()))
    }

    /// [`NgramLm::probability`], looking the bigram up through `key`, a
    /// buffer the caller reuses across lookups.
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

    /// Mean negative log-probability per token of a line (its surprisal).
    ///
    /// Untrained models return a constant so the feature is uninformative rather than
    /// misleading.
    pub fn surprisal(&self, line: &str) -> f64 {
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

    /// Perplexity of a text under the model.
    pub fn perplexity(&self, text: &str) -> f64 {
        self.surprisal(text).exp()
    }
}

/// Overwrites the bigram key buffer with `(prev, next)`, reusing its capacity.
fn set_key(key: &mut (String, String), prev: &str, next: &str) {
    key.0.clear();
    key.0.push_str(prev);
    key.1.clear();
    key.1.push_str(next);
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
            total += -lm.probability(&window[0], &window[1]).ln();
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
            let (new, old) = (lm.surprisal(&line), surprisal_oracle(&oracle, &line));
            assert_eq!(new.to_bits(), old.to_bits(), "{line:?}");
        }
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
        let familiar = lm.surprisal("if (!rst_n) q <= 0;");
        let weird = lm.surprisal("zz9 %% qq7 ^^ @@");
        assert!(familiar < weird, "familiar={familiar} weird={weird}");
    }

    #[test]
    fn untrained_model_is_neutral() {
        let lm = NgramLm::new();
        assert_eq!(lm.surprisal("anything at all"), 1.0);
        assert!(!lm.is_trained());
    }

    #[test]
    fn perplexity_is_exp_of_surprisal() {
        let mut lm = NgramLm::new();
        lm.train_text("assign y = a & b;");
        let s = lm.surprisal("assign y = a & b;");
        assert!((lm.perplexity("assign y = a & b;") - s.exp()).abs() < 1e-9);
    }

    #[test]
    fn probabilities_are_normalised_enough() {
        let mut lm = NgramLm::new();
        lm.train_text("a b a b a b a c");
        let p_ab = lm.probability("a", "b");
        let p_ac = lm.probability("a", "c");
        assert!(p_ab > p_ac);
        assert!(p_ab <= 1.0 && p_ac > 0.0);
    }
}
