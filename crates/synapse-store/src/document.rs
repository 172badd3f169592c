//! JSON documents with a per-document size limit.
//!
//! A document's body is held as its canonical JSON text: the compact,
//! sorted-key bytes every writer in the workspace produces
//! (`serde_json::to_string`, derived `write_json`). That text is what
//! the size limit counts — MongoDB counts a document's encoded bytes
//! too (§4.5 of the paper) — what a shard file embeds, and what a read
//! decodes from. No parsed tree is kept beside it.

use std::cell::RefCell;

use serde::json::{write_value, Parser};
use serde::{Deserialize, Serialize};

use crate::error::StoreError;

/// MongoDB's classic per-document size limit, which (per §4.5 of the
/// paper) caps a single stored profile at roughly 250 000 samples.
pub const DEFAULT_DOC_LIMIT: usize = 16 * 1024 * 1024;

/// One stored document: a string id plus a JSON body held as its
/// canonical compact text.
///
/// The text is written once, when the document is made or loaded, into
/// a string of exactly its length. [`size`](Document::size) is that
/// length and [`decode`](Document::decode) reads straight from it. A
/// document serializes as `{"body":…,"id":…}` with the text spliced in
/// as it is; reading one back renders whatever body text it finds —
/// spaced out, keys in any order — into the same canonical text.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Document {
    /// Unique id within its store.
    pub id: String,
    /// The body, as canonical JSON text.
    body: CanonicalJson,
}

impl Document {
    /// Build a document from any serializable value.
    pub fn new(id: impl Into<String>, body: &impl Serialize) -> Result<Document, StoreError> {
        Ok(Document {
            id: id.into(),
            body: CanonicalJson(exact_size(|out| body.write_json(out))),
        })
    }

    /// A document over a body text that is already canonical — what
    /// `serde_json::to_string` wrote for a typed value.
    pub(crate) fn from_canonical(id: String, mut text: String) -> Document {
        text.shrink_to_fit();
        Document {
            id,
            body: CanonicalJson(text),
        }
    }

    /// The body's canonical JSON text.
    pub fn text(&self) -> &str {
        &self.body.0
    }

    /// Size of the body in bytes: the length of its text, which is
    /// what counts against the document limit (mirroring BSON
    /// document size).
    pub fn size(&self) -> usize {
        self.body.0.len()
    }

    /// Check the body against a size limit.
    pub fn check_limit(&self, limit: usize) -> Result<(), StoreError> {
        let size = self.size();
        if size > limit {
            Err(StoreError::DocumentTooLarge { size, limit })
        } else {
            Ok(())
        }
    }

    /// Deserialize the body into a concrete type, streaming from its
    /// text.
    pub fn decode<T: for<'de> Deserialize<'de>>(&self) -> Result<T, StoreError> {
        Ok(serde_json::from_str(&self.body.0)?)
    }
}

/// A JSON value kept as its canonical compact text. Written, it is
/// spliced in verbatim; read, any spelling of the value is rendered
/// into canonical form (the only way to get one from outside).
#[derive(Debug, Clone, PartialEq)]
struct CanonicalJson(String);

impl Serialize for CanonicalJson {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.0);
    }
}

impl<'de> Deserialize<'de> for CanonicalJson {
    // Read as a tree, then rendered here once.
    fn parse_json(parser: &mut Parser<'_>) -> Result<Self, serde::Error> {
        let value = parser.parse_value()?;
        Ok(CanonicalJson(exact_size(|out| {
            write_value(out, &value, None, 0)
        })))
    }
}

/// Scratch buffers above this capacity are dropped after use rather
/// than kept for the thread's next document.
const SCRATCH_KEEP: usize = 64 * 1024;

thread_local! {
    /// Where [`exact_size`] writes before copying out.
    static SCRATCH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// What `write` appends to an empty buffer, as a string of exactly that
/// length: one allocation once the thread's scratch buffer has grown.
fn exact_size(write: impl FnOnce(&mut String)) -> String {
    // Taken, not borrowed: a `write` that makes a document of its own
    // finds an empty buffer instead of a held borrow.
    let mut scratch = SCRATCH.take();
    scratch.clear();
    write(&mut scratch);
    let text = scratch.as_str().to_owned();
    if scratch.capacity() <= SCRATCH_KEEP {
        SCRATCH.set(scratch);
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn new_and_decode_roundtrip() {
        #[derive(Serialize, Deserialize, PartialEq, Debug)]
        struct T {
            a: u32,
            b: String,
        }
        let v = T {
            a: 7,
            b: "x".into(),
        };
        let d = Document::new("one", &v).unwrap();
        assert_eq!(d.id, "one");
        let back: T = d.decode().unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn size_counts_serialized_bytes() {
        let d = Document::new("i", &json!({"k": "vvvv"})).unwrap();
        assert_eq!(d.text(), r#"{"k":"vvvv"}"#);
        assert_eq!(d.size(), r#"{"k":"vvvv"}"#.len());
    }

    #[test]
    fn limit_enforced() {
        let d = Document::new("i", &json!({"k": "v".repeat(100)})).unwrap();
        assert!(d.check_limit(10).is_err());
        assert!(d.check_limit(DEFAULT_DOC_LIMIT).is_ok());
        match d.check_limit(10) {
            Err(StoreError::DocumentTooLarge { size, limit }) => {
                assert!(size > limit);
                assert_eq!(limit, 10);
            }
            other => panic!("expected DocumentTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn decode_type_mismatch_errors() {
        let d = Document::new("i", &"a string").unwrap();
        let r: Result<u32, _> = d.decode();
        assert!(r.is_err());
    }

    #[test]
    fn the_text_is_spliced_into_the_stored_form() {
        let body = json!({"b": [1, 2.5, null], "a": "é\n"});
        let d = Document::new("k", &body).unwrap();
        let stored = serde_json::to_string(&d).unwrap();
        assert_eq!(stored, format!(r#"{{"body":{},"id":"k"}}"#, d.text()));
        assert_eq!(d.text(), serde_json::to_string(&body).unwrap());
    }

    #[test]
    fn any_spelling_of_a_body_loads_as_its_canonical_text() {
        let spelled = r#"[ {"id": "k", "body": { "z" : 1E2, "a":[ "é\/" ,-0 ] }, "extra": 1} ]"#;
        let docs: Vec<Document> = serde_json::from_str(spelled).unwrap();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].id, "k");
        assert_eq!(docs[0].text(), r#"{"a":["é/",0],"z":100.0}"#);
        assert_eq!(docs[0].size(), docs[0].text().len());
        // Canonical text is a fixed point: stored and loaded again, it
        // is the same document.
        let again: Document =
            serde_json::from_str(&serde_json::to_string(&docs[0]).unwrap()).unwrap();
        assert_eq!(again, docs[0]);
    }

    #[test]
    fn a_body_is_written_into_a_string_of_exactly_its_length() {
        let big = "x".repeat(2 * SCRATCH_KEEP);
        for body in [json!({"k": 1}), json!(big)] {
            let d = Document::new("i", &body).unwrap();
            assert_eq!(d.body.0.capacity(), d.size());
        }
        let loaded: Document = serde_json::from_str(r#"{"body": {"k" : 1}, "id": "i"}"#).unwrap();
        assert_eq!(loaded.body.0.capacity(), loaded.size());
    }
}
