//! The daemon's JSON API: request decoding, scoring, and byte-stable
//! response encoding.
//!
//! Three request forms share `POST /rank`, keyed by the single
//! top-level field of the request object:
//!
//! * `{"rank": {...}}` — one filtered-protocol ranking query,
//!   reproducing `dekg evaluate` bitwise: the caller names the truth
//!   triple, the prediction form, and the `(seed, index)` pair that
//!   seeds candidate sampling, and gets back exactly the tie-averaged
//!   rank the evaluation protocol computes for that query.
//! * `{"score": {...}}` — a fixed-pair batch: plausibility scores for
//!   an explicit list of `[head, relation, tail]` name triples.
//! * `{"rank_tails": {...}}` — the serving question proper: the top-k
//!   tail completions for `(head, relation)` over the full entity
//!   universe, known-true triples filtered out.
//!
//! Responses are built as ordered [`serde::Value`] objects and encoded
//! with the workspace's deterministic float rendering, so identical
//! queries produce byte-identical bodies across runs, thread counts
//! and checkpoint generations (a reload that restores the same
//! checkpoint changes no response byte).

use crate::engine::RankEngine;
use dekg_core::LinkPredictor;
use dekg_eval::{filtered_rank, RankQuery};
use dekg_kg::{EntityId, RelationId, Triple, Vocab};
use serde::{Number, Value};

/// A client-visible failure: HTTP status plus message (the `{"error"}`
/// envelope body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ApiError {
    /// HTTP status to answer with.
    pub status: u16,
    /// Human-readable message.
    pub message: String,
}

impl ApiError {
    /// A 400 Bad Request.
    pub fn bad(message: impl Into<String>) -> ApiError {
        ApiError { status: 400, message: message.into() }
    }
}

/// One decoded `/rank` request.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RankRequest {
    /// `{"rank": {...}}` — one evaluation-protocol query.
    Rank {
        /// The query (truth triple + prediction form).
        query: RankQuery,
        /// Prediction form name, echoed into the response.
        task: &'static str,
        /// Candidate cap (`None` = full filtered candidate set).
        sample: Option<usize>,
        /// Master seed for candidate sampling.
        seed: u64,
        /// Per-query seed-split index (`li * |tasks| + ti` in the CLI).
        index: u64,
    },
    /// `{"score": {...}}` — fixed-pair batch scoring.
    Score {
        /// The triples to score, in request order.
        triples: Vec<Triple>,
    },
    /// `{"rank_tails": {...}}` — top-k tail completion.
    RankTails {
        /// Query head.
        head: EntityId,
        /// Query relation.
        rel: RelationId,
        /// How many completions to return.
        k: usize,
    },
}

/// The object payload of `pairs[name]`, or a 400.
fn obj_field<'v>(
    pairs: &'v [(String, Value)],
    name: &str,
) -> Result<&'v [(String, Value)], ApiError> {
    match serde::field(pairs, name) {
        Ok(Value::Object(inner)) => Ok(inner),
        Ok(_) => Err(ApiError::bad(format!("field {name:?} must be an object"))),
        Err(_) => Err(ApiError::bad(format!("missing field {name:?}"))),
    }
}

/// A required string field, or a 400.
fn str_field<'v>(pairs: &'v [(String, Value)], name: &str) -> Result<&'v str, ApiError> {
    serde::field(pairs, name)
        .ok()
        .and_then(Value::as_str)
        .ok_or_else(|| ApiError::bad(format!("missing string field {name:?}")))
}

/// An optional unsigned-integer field with a default.
fn u64_field_or(pairs: &[(String, Value)], name: &str, default: u64) -> Result<u64, ApiError> {
    match pairs.iter().find(|(k, _)| k == name) {
        None => Ok(default),
        Some((_, Value::Null)) => Ok(default),
        Some((_, Value::Num(n))) => n
            .as_u64()
            .ok_or_else(|| ApiError::bad(format!("field {name:?} must be a non-negative integer"))),
        Some(_) => Err(ApiError::bad(format!("field {name:?} must be a non-negative integer"))),
    }
}

/// An entity by name, or a 400 naming the unknown entity.
fn entity(vocab: &Vocab, name: &str) -> Result<EntityId, ApiError> {
    vocab.entity(name).ok_or_else(|| ApiError::bad(format!("unknown entity {name:?}")))
}

/// A relation by name, or a 400 naming the unknown relation.
fn relation(vocab: &Vocab, name: &str) -> Result<RelationId, ApiError> {
    vocab.relation(name).ok_or_else(|| ApiError::bad(format!("unknown relation {name:?}")))
}

impl RankRequest {
    /// Decodes a request body against the dataset vocabulary.
    pub fn parse(body: &str, vocab: &Vocab) -> Result<RankRequest, ApiError> {
        let value = serde_json::parse_value(body)
            .map_err(|e| ApiError::bad(format!("invalid JSON: {e}")))?;
        let pairs =
            value.as_object().ok_or_else(|| ApiError::bad("request body must be a JSON object"))?;
        if let Ok(inner) = obj_field(pairs, "rank") {
            return RankRequest::parse_rank(inner, vocab);
        }
        if let Ok(inner) = obj_field(pairs, "score") {
            return RankRequest::parse_score(inner, vocab);
        }
        if let Ok(inner) = obj_field(pairs, "rank_tails") {
            return RankRequest::parse_rank_tails(inner, vocab);
        }
        Err(ApiError::bad("request must contain one of \"rank\", \"score\", \"rank_tails\""))
    }

    fn parse_rank(pairs: &[(String, Value)], vocab: &Vocab) -> Result<RankRequest, ApiError> {
        let truth = Triple::new(
            entity(vocab, str_field(pairs, "head")?)?,
            relation(vocab, str_field(pairs, "rel")?)?,
            entity(vocab, str_field(pairs, "tail")?)?,
        );
        let (query, task) = match str_field(pairs, "task")? {
            "head" => (RankQuery::Head(truth), "head"),
            "relation" => (RankQuery::Relation(truth), "relation"),
            "tail" => (RankQuery::Tail(truth), "tail"),
            other => {
                return Err(ApiError::bad(format!(
                    "unknown task {other:?} (expected \"head\", \"relation\" or \"tail\")"
                )))
            }
        };
        let sample = match pairs.iter().find(|(k, _)| k == "candidates") {
            None | Some((_, Value::Null)) => None,
            Some(_) => Some(
                usize::try_from(u64_field_or(pairs, "candidates", 0)?)
                    .map_err(|_| ApiError::bad("field \"candidates\" is out of range"))?,
            ),
        };
        let seed = u64_field_or(pairs, "seed", 0)?;
        let index = u64_field_or(pairs, "index", 0)?;
        Ok(RankRequest::Rank { query, task, sample, seed, index })
    }

    fn parse_score(pairs: &[(String, Value)], vocab: &Vocab) -> Result<RankRequest, ApiError> {
        let Ok(Value::Array(items)) = serde::field(pairs, "triples") else {
            return Err(ApiError::bad("field \"triples\" must be an array"));
        };
        let mut triples = Vec::with_capacity(items.len());
        for item in items {
            let parts = item
                .as_array()
                .filter(|a| a.len() == 3)
                .ok_or_else(|| ApiError::bad("each triple must be [head, rel, tail]"))?;
            let name = |i: usize| {
                parts[i].as_str().ok_or_else(|| ApiError::bad("triple components must be strings"))
            };
            triples.push(Triple::new(
                entity(vocab, name(0)?)?,
                relation(vocab, name(1)?)?,
                entity(vocab, name(2)?)?,
            ));
        }
        if triples.is_empty() {
            return Err(ApiError::bad("field \"triples\" must not be empty"));
        }
        Ok(RankRequest::Score { triples })
    }

    fn parse_rank_tails(pairs: &[(String, Value)], vocab: &Vocab) -> Result<RankRequest, ApiError> {
        let head = entity(vocab, str_field(pairs, "head")?)?;
        let rel = relation(vocab, str_field(pairs, "rel")?)?;
        let k = usize::try_from(u64_field_or(pairs, "k", 10)?)
            .map_err(|_| ApiError::bad("field \"k\" is out of range"))?;
        if k == 0 {
            return Err(ApiError::bad("field \"k\" must be at least 1"));
        }
        Ok(RankRequest::RankTails { head, rel, k })
    }
}

/// An `f32` model score as a JSON number (exact: every `f32` is
/// representable as `f64`, and the encoder's shortest-roundtrip float
/// rendering makes the bytes a pure function of the value).
fn score_value(s: f32) -> Value {
    Value::Num(Number::F(f64::from(s)))
}

/// Executes one decoded request against the engine's *current* model
/// generation. The generation `Arc` is taken once at entry, so a
/// concurrent hot-swap cannot change the model mid-request.
pub(crate) fn execute(engine: &RankEngine, request: &RankRequest) -> Result<Value, ApiError> {
    let generation = engine.model();
    let model = &generation.model;
    match request {
        RankRequest::Rank { query, task, sample, seed, index } => {
            let mut rng = dekg_datasets::item_rng(*seed, *index);
            let rank =
                filtered_rank(model, engine.graph(), query, engine.filter(), *sample, &mut rng);
            Ok(Value::Object(vec![
                ("task".to_owned(), Value::Str((*task).to_owned())),
                ("rank".to_owned(), Value::Num(Number::F(rank))),
            ]))
        }
        RankRequest::Score { triples } => {
            let scores = model.score_batch(engine.graph(), triples);
            Ok(Value::Object(vec![(
                "scores".to_owned(),
                Value::Array(scores.into_iter().map(score_value).collect()),
            )]))
        }
        RankRequest::RankTails { head, rel, k } => {
            let vocab = &engine.dataset().vocab;
            let filter = engine.filter();
            // Every entity as a tail candidate, known-true triples
            // (observed graphs + held-out splits) filtered out — the
            // same closed-world convention as the ranking protocol.
            let candidates: Vec<Triple> = (0..engine.graph().num_entities as u32)
                .map(|e| Triple::new(*head, *rel, EntityId(e)))
                .filter(|t| !filter.contains(t))
                .collect();
            let scores = model.score_batch(engine.graph(), &candidates);
            let mut ranked: Vec<(Triple, f32)> = candidates.into_iter().zip(scores).collect();
            // Deterministic order: score descending, entity id ascending
            // on ties (total_cmp gives NaN a fixed position too).
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.tail.cmp(&b.0.tail)));
            ranked.truncate(*k);
            let tails: Vec<Value> = ranked
                .into_iter()
                .map(|(t, s)| {
                    Value::Object(vec![
                        ("tail".to_owned(), Value::Str(vocab.entity_name(t.tail).to_owned())),
                        ("score".to_owned(), score_value(s)),
                    ])
                })
                .collect();
            Ok(Value::Object(vec![
                ("head".to_owned(), Value::Str(vocab.entity_name(*head).to_owned())),
                ("rel".to_owned(), Value::Str(vocab.relation_name(*rel).to_owned())),
                ("tails".to_owned(), Value::Array(tails)),
            ]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab() -> Vocab {
        let mut v = Vocab::new();
        for n in ["a", "b", "c"] {
            v.intern_entity(n);
        }
        v.intern_relation("likes");
        v
    }

    #[test]
    fn parses_protocol_rank() {
        let v = vocab();
        let req = RankRequest::parse(
            r#"{"rank": {"task": "tail", "head": "a", "rel": "likes", "tail": "b",
                "candidates": 50, "seed": 7, "index": 3}}"#,
            &v,
        )
        .unwrap();
        let truth = Triple::from_raw(0, 0, 1);
        assert_eq!(
            req,
            RankRequest::Rank {
                query: RankQuery::Tail(truth),
                task: "tail",
                sample: Some(50),
                seed: 7,
                index: 3,
            }
        );
    }

    #[test]
    fn rank_defaults_are_full_protocol_seed_zero() {
        let v = vocab();
        let req = RankRequest::parse(
            r#"{"rank": {"task": "head", "head": "a", "rel": "likes", "tail": "c"}}"#,
            &v,
        )
        .unwrap();
        match req {
            RankRequest::Rank { sample, seed, index, .. } => {
                assert_eq!(sample, None);
                assert_eq!(seed, 0);
                assert_eq!(index, 0);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parses_score_batch() {
        let v = vocab();
        let req = RankRequest::parse(
            r#"{"score": {"triples": [["a", "likes", "b"], ["c", "likes", "a"]]}}"#,
            &v,
        )
        .unwrap();
        assert_eq!(
            req,
            RankRequest::Score {
                triples: vec![Triple::from_raw(0, 0, 1), Triple::from_raw(2, 0, 0)],
            }
        );
    }

    #[test]
    fn parses_rank_tails_with_default_k() {
        let v = vocab();
        let req =
            RankRequest::parse(r#"{"rank_tails": {"head": "b", "rel": "likes"}}"#, &v).unwrap();
        assert_eq!(req, RankRequest::RankTails { head: EntityId(1), rel: RelationId(0), k: 10 });
    }

    #[test]
    fn rejects_unknown_names_with_400() {
        let v = vocab();
        let err = RankRequest::parse(r#"{"rank_tails": {"head": "zz", "rel": "likes"}}"#, &v)
            .unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("unknown entity"), "{}", err.message);
    }

    #[test]
    fn rejects_unknown_form_and_bad_json() {
        let v = vocab();
        assert_eq!(RankRequest::parse(r#"{"frobnicate": {}}"#, &v).unwrap_err().status, 400);
        assert_eq!(RankRequest::parse("not json", &v).unwrap_err().status, 400);
        assert_eq!(RankRequest::parse("[1,2]", &v).unwrap_err().status, 400);
    }

    // ---- fuzzing: hostile bodies decode to Ok or a 400, never a panic ----

    use proptest::prelude::*;

    /// One valid body per request form, with every optional field set.
    const VALID: [&str; 3] = [
        r#"{"rank": {"task": "tail", "head": "a", "rel": "likes", "tail": "b", "candidates": 50, "seed": 7, "index": 3}}"#,
        r#"{"score": {"triples": [["a", "likes", "b"], ["c", "likes", "a"]]}}"#,
        r#"{"rank_tails": {"head": "b", "rel": "likes", "k": 3}}"#,
    ];

    /// Characters a mutation splices in: JSON structure, number syntax,
    /// escapes, whitespace, a vocabulary letter and non-ASCII text.
    const ALPHABET: &str = "{}[]\":,\\u019-+.eE \nantfé\u{1F600}\0";

    fn alphabet_char() -> impl Strategy<Value = char> {
        let chars: Vec<char> = ALPHABET.chars().collect();
        (0..chars.len()).prop_map(move |i| chars[i])
    }

    /// One edit of a valid body: `(kind, at, len, inserted text)`. Kinds:
    /// delete `len` chars, insert the text, overwrite with it, truncate,
    /// or repeat a slice.
    fn edit() -> impl Strategy<Value = (u8, usize, usize, Vec<char>)> {
        (0u8..5, any::<usize>(), 0usize..12, prop::collection::vec(alphabet_char(), 1..6))
    }

    fn apply(body: &mut Vec<char>, (kind, at, len, text): &(u8, usize, usize, Vec<char>)) {
        let at = at % (body.len() + 1);
        let end = (at + len).min(body.len());
        match kind {
            0 => drop(body.drain(at..end)),
            1 => drop(body.splice(at..at, text.iter().copied())),
            2 => drop(body.splice(at..end, text.iter().copied())),
            3 => body.truncate(at),
            _ => {
                let slice: Vec<char> = body[at..end].to_vec();
                body.splice(at..at, slice);
            }
        }
    }

    /// Values a structural edit puts in place of a node: every JSON type,
    /// integers at both ends of their widths, a huge float and strings
    /// inside and outside the vocabulary.
    fn replacement(i: usize) -> Value {
        match i % 10 {
            0 => Value::Null,
            1 => Value::Bool(true),
            2 => Value::Num(Number::I(-1)),
            3 => Value::Num(Number::U(u64::MAX)),
            4 => Value::Num(Number::F(1e300)),
            5 => Value::Num(Number::U(0)),
            6 => Value::Str("a".to_owned()),
            7 => Value::Str(String::new()),
            8 => Value::Array(Vec::new()),
            _ => Value::Object(Vec::new()),
        }
    }

    /// Applies one structural edit to the node at pre-order position
    /// `*at` (counting down): drop its last child, duplicate its first
    /// child, wrap it in an array, or replace it. Returns whether the edit
    /// happened.
    fn edit_node(v: &mut Value, at: &mut usize, kind: u8, pick: usize) -> bool {
        if *at == 0 {
            match (kind, &mut *v) {
                (0, Value::Array(items)) => drop(items.pop()),
                (0, Value::Object(pairs)) => drop(pairs.pop()),
                (1, Value::Array(items)) if !items.is_empty() => items.push(items[0].clone()),
                (1, Value::Object(pairs)) if !pairs.is_empty() => pairs.push(pairs[0].clone()),
                (2, _) => *v = Value::Array(vec![v.clone()]),
                _ => *v = replacement(pick),
            }
            return true;
        }
        *at -= 1;
        match v {
            Value::Array(items) => items.iter_mut().any(|c| edit_node(c, at, kind, pick)),
            Value::Object(pairs) => pairs.iter_mut().any(|(_, c)| edit_node(c, at, kind, pick)),
            _ => false,
        }
    }

    fn decodes_or_400(body: &str) -> Result<(), TestCaseError> {
        match RankRequest::parse(body, &vocab()) {
            Ok(_) => Ok(()),
            Err(e) => {
                prop_assert_eq!(e.status, 400, "{:?} for body {:?}", e.message, body);
                Ok(())
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn arbitrary_strings_decode_or_400(
            chars in prop::collection::vec(alphabet_char(), 0..64),
            bytes in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            decodes_or_400(&chars.into_iter().collect::<String>())?;
            decodes_or_400(&String::from_utf8_lossy(&bytes))?;
        }

        #[test]
        fn mutated_valid_bodies_decode_or_400(
            form in 0..VALID.len(),
            edits in prop::collection::vec(edit(), 1..5),
        ) {
            let mut body: Vec<char> = VALID[form].chars().collect();
            for e in &edits {
                apply(&mut body, e);
            }
            decodes_or_400(&body.into_iter().collect::<String>())?;
        }

        #[test]
        fn structurally_edited_valid_bodies_decode_or_400(
            form in 0..VALID.len(),
            edits in prop::collection::vec((any::<usize>(), 0u8..4, any::<usize>()), 1..4),
        ) {
            let mut value = serde_json::parse_value(VALID[form]).expect("valid body");
            for (at, kind, pick) in edits {
                edit_node(&mut value, &mut (at % 16), kind, pick);
            }
            decodes_or_400(&serde_json::to_string(&value).expect("values encode"))?;
        }
    }

    /// Values the edits above are unlikely to produce: numbers past every
    /// integer width, negative and fractional counts, wrong field types,
    /// a zero `k`, and nesting as deep as the body cap allows.
    #[test]
    fn hostile_field_values_decode_or_400() {
        let rank = |extra: &str| {
            format!(
                r#"{{"rank": {{"task": "tail", "head": "a", "rel": "likes", "tail": "b"{extra}}}}}"#
            )
        };
        let bodies = [
            rank(r#", "candidates": 18446744073709551616"#),
            rank(r#", "candidates": -1"#),
            rank(r#", "seed": 1.5"#),
            rank(r#", "index": 1e400"#),
            rank(r#", "index": "3""#),
            r#"{"rank_tails": {"head": "b", "rel": "likes", "k": 0}}"#.to_owned(),
            r#"{"score": {"triples": []}}"#.to_owned(),
            r#"{"score": {"triples": [["a", "likes"]]}}"#.to_owned(),
            r#"{"score": {"triples": [["a", 1, "b"]]}}"#.to_owned(),
            r#"{"rank": {"task": "\ud800", "head": "a", "rel": "likes", "tail": "b"}}"#.to_owned(),
            "[".repeat(crate::http::MAX_BODY_BYTES),
            format!(r#"{{"score": {}"#, "{\"a\":".repeat(100_000)),
        ];
        for body in &bodies {
            if let Err(e) = RankRequest::parse(body, &vocab()) {
                assert_eq!(e.status, 400, "{} for {body:.80}", e.message);
            }
        }
    }
}
