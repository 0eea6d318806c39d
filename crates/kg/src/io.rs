//! Plain-text triple IO in the standard `head\trelation\ttail` format
//! used by FB15k-237 / NELL-995 / WN18RR releases and the GraIL splits.
//!
//! The synthetic generator in `dekg-datasets` is the default data
//! source, but these loaders let real benchmark files be dropped in
//! unchanged.

use crate::store::TripleStore;
use crate::triple::Triple;
use crate::vocab::Vocab;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;

/// Errors raised while parsing triple files.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying IO failure.
    Io(io::Error),
    /// A line did not have exactly three tab-separated fields.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The start of the offending content (whitespace-trimmed), at
        /// most [`BAD_LINE_PREFIX_BYTES`] long, cut at a char boundary.
        content: String,
        /// The offending line's full length in bytes.
        bytes: usize,
    },
}

/// The most bytes of an offending line a [`ParseError::BadLine`] keeps:
/// a file of one multi-megabyte line must not be copied into the error.
pub const BAD_LINE_PREFIX_BYTES: usize = 256;

impl ParseError {
    fn bad_line(line: usize, raw: &str) -> Self {
        let trimmed = raw.trim();
        let mut end = trimmed.len().min(BAD_LINE_PREFIX_BYTES);
        while !trimmed.is_char_boundary(end) {
            end -= 1;
        }
        ParseError::BadLine { line, content: trimmed[..end].to_owned(), bytes: raw.len() }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "io error: {e}"),
            ParseError::BadLine { line, content, bytes } => write!(
                f,
                "line {line} ({bytes} bytes): expected 'head\\trel\\ttail', got {content:?}"
            ),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Parses TSV triples from a reader, interning into `vocab`.
///
/// Blank lines and lines starting with `#` are skipped.
pub fn read_triples(reader: impl Read, vocab: &mut Vocab) -> Result<TripleStore, ParseError> {
    let mut store = TripleStore::new();
    let buf = BufReader::new(reader);
    for (i, line) in buf.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut fields = trimmed.split('\t');
        let (Some(h), Some(r), Some(t), None) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            return Err(ParseError::bad_line(i + 1, &line));
        };
        let head = vocab.intern_entity(h);
        let rel = vocab.intern_relation(r);
        let tail = vocab.intern_entity(t);
        store.insert(Triple::new(head, rel, tail));
    }
    Ok(store)
}

/// Loads a TSV triple file from disk.
pub fn load_triples(path: impl AsRef<Path>, vocab: &mut Vocab) -> Result<TripleStore, ParseError> {
    let file = std::fs::File::open(path)?;
    read_triples(file, vocab)
}

/// Writes triples as TSV using the vocabulary's names.
pub fn write_triples(store: &TripleStore, vocab: &Vocab, mut writer: impl Write) -> io::Result<()> {
    let mut line = String::new();
    for t in store.triples() {
        line.clear();
        let _ = writeln!(
            line,
            "{}\t{}\t{}",
            vocab.entity_name(t.head),
            vocab.relation_name(t.rel),
            vocab.entity_name(t.tail)
        );
        writer.write_all(line.as_bytes())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic() {
        let input = "a\tlikes\tb\nb\tknows\tc\n";
        let mut vocab = Vocab::new();
        let store = read_triples(input.as_bytes(), &mut vocab).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(vocab.num_entities(), 3);
        assert_eq!(vocab.num_relations(), 2);
    }

    #[test]
    fn skips_comments_and_blanks() {
        let input = "# header\n\na\tr\tb\n   \n";
        let mut vocab = Vocab::new();
        let store = read_triples(input.as_bytes(), &mut vocab).unwrap();
        assert_eq!(store.len(), 1);
    }

    /// A multi-megabyte line yields an error (and a message) of bounded
    /// size that still says how long the line was.
    #[test]
    fn a_huge_bad_line_gives_a_bounded_error() {
        // Multi-byte chars, so a byte cut could land inside one.
        let huge = format!("a\tr\t{}\tb\n", "é".repeat(2 << 20));
        let mut vocab = Vocab::new();
        let err = read_triples(huge.as_bytes(), &mut vocab).unwrap_err();
        let ParseError::BadLine { line, content, bytes } = &err else { panic!("{err}") };
        assert_eq!((*line, *bytes), (1, huge.len() - 1));
        assert!(content.len() <= BAD_LINE_PREFIX_BYTES && content.starts_with("a\tr\t"));
        let shown = err.to_string();
        assert!(shown.len() < 2 * BAD_LINE_PREFIX_BYTES, "{} bytes of message", shown.len());
        assert!(shown.starts_with(&format!("line 1 ({} bytes)", huge.len() - 1)), "{shown}");
    }

    #[test]
    fn rejects_malformed_lines() {
        let input = "a\tr\n";
        let mut vocab = Vocab::new();
        let err = read_triples(input.as_bytes(), &mut vocab).unwrap_err();
        match err {
            ParseError::BadLine { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn rejects_too_many_fields() {
        let input = "a\tr\tb\textra\n";
        let mut vocab = Vocab::new();
        assert!(read_triples(input.as_bytes(), &mut vocab).is_err());
    }

    #[test]
    fn write_read_roundtrip() {
        let mut vocab = Vocab::new();
        let store = read_triples("x\tp\ty\ny\tq\tz\n".as_bytes(), &mut vocab).unwrap();
        let mut out = Vec::new();
        write_triples(&store, &vocab, &mut out).unwrap();
        let mut vocab2 = Vocab::new();
        let store2 = read_triples(out.as_slice(), &mut vocab2).unwrap();
        assert_eq!(store2.len(), store.len());
        assert_eq!(vocab2.num_entities(), vocab.num_entities());
    }

    #[test]
    fn shared_vocab_across_files() {
        // Loading G then G' with one vocab keeps the relation space
        // shared and the entity ranges disjoint (DEKG requirement).
        let mut vocab = Vocab::new();
        let g = read_triples("a\tr\tb\n".as_bytes(), &mut vocab).unwrap();
        let g_prime = read_triples("x\tr\ty\n".as_bytes(), &mut vocab).unwrap();
        assert_eq!(vocab.num_relations(), 1);
        let g_entities = g.entities();
        let gp_entities = g_prime.entities();
        assert!(g_entities.is_disjoint(&gp_entities));
    }
}
