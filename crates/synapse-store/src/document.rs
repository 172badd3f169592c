//! JSON documents with a per-document size limit.

use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::error::StoreError;

/// MongoDB's classic per-document size limit, which (per §4.5 of the
/// paper) caps a single stored profile at roughly 250 000 samples.
pub const DEFAULT_DOC_LIMIT: usize = 16 * 1024 * 1024;

/// One stored document: a string id plus an arbitrary JSON body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Document {
    /// Unique id within its collection.
    pub id: String,
    /// JSON body.
    pub body: Value,
}

impl Document {
    /// Build a document from any serializable value.
    pub fn new(id: impl Into<String>, body: &impl Serialize) -> Result<Document, StoreError> {
        Ok(Document {
            id: id.into(),
            body: serde_json::to_value(body)?,
        })
    }

    /// Serialized size of the body in bytes (what counts against the
    /// document limit, mirroring BSON document size).
    pub fn size(&self) -> usize {
        let mut text = String::new();
        self.body.write_json(&mut text);
        text.len()
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

    /// Deserialize the body into a concrete type.
    pub fn decode<T: for<'de> Deserialize<'de>>(&self) -> Result<T, StoreError> {
        T::deserialize(&self.body).map_err(|e| StoreError::Serde(e.into()))
    }
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
        let d = Document {
            id: "i".into(),
            body: json!({"k": "vvvv"}),
        };
        assert_eq!(d.size(), r#"{"k":"vvvv"}"#.len());
    }

    #[test]
    fn limit_enforced() {
        let d = Document {
            id: "i".into(),
            body: json!({"k": "v".repeat(100)}),
        };
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
        let d = Document {
            id: "i".into(),
            body: json!("a string"),
        };
        let r: Result<u32, _> = d.decode();
        assert!(r.is_err());
    }
}
