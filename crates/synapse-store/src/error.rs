//! Error type for the persistence layer.

use std::fmt;

/// Errors produced by the document store and the file store.
#[derive(Debug)]
pub enum StoreError {
    /// A document exceeded the per-document size limit (MongoDB's
    /// 16 MB in the paper).
    DocumentTooLarge {
        /// Serialized size of the offending document in bytes.
        size: usize,
        /// Configured limit in bytes.
        limit: usize,
    },
    /// No document/profile matched the query.
    NotFound(String),
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// JSON (de)serialization failure.
    Serde(serde_json::Error),
    /// A persisted store is internally inconsistent (bad manifest,
    /// misrouted document, unsupported layout version).
    Corrupt(String),
    /// The data model rejected a profile (validation).
    Model(synapse_model::ModelError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::DocumentTooLarge { size, limit } => {
                write!(f, "document of {size} bytes exceeds the {limit}-byte limit")
            }
            StoreError::NotFound(what) => write!(f, "not found: {what}"),
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Serde(e) => write!(f, "serialization error: {e}"),
            StoreError::Corrupt(what) => write!(f, "corrupt store: {what}"),
            StoreError::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Serde(e) => Some(e),
            StoreError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<serde_json::Error> for StoreError {
    fn from(e: serde_json::Error) -> Self {
        StoreError::Serde(e)
    }
}

impl From<synapse_model::ModelError> for StoreError {
    fn from(e: synapse_model::ModelError) -> Self {
        StoreError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = StoreError::DocumentTooLarge {
            size: 20,
            limit: 10,
        };
        assert!(e.to_string().contains("20"));
        assert!(e.to_string().contains("10"));
        assert!(StoreError::NotFound("x".into()).to_string().contains('x'));
    }

    #[test]
    fn conversions() {
        let io: StoreError = std::io::Error::other("boom").into();
        assert!(matches!(io, StoreError::Io(_)));
        let sj: Result<u8, _> = serde_json::from_str("x");
        let e: StoreError = sj.unwrap_err().into();
        assert!(matches!(e, StoreError::Serde(_)));
        let m: StoreError = synapse_model::ModelError::EmptyProfile.into();
        assert!(matches!(m, StoreError::Model(_)));
    }
}
