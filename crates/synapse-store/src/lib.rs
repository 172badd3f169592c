#![warn(missing_docs)]

//! Profile persistence for Synapse.
//!
//! The paper stores profiles either in a MongoDB database — indexed by
//! the `(command, tags)` combination, subject to MongoDB's 16 MB
//! document limit (§4.5, "DB limitations") — or on disk as files (no
//! size limit). This crate provides both backends without requiring a
//! server, over one database:
//!
//! * [`ShardedDb`] — the database: an embedded, thread-safe JSON
//!   document store with a configurable per-document size limit
//!   defaulting to 16 MB ([`DEFAULT_DOC_LIMIT`]). A [`Document`] holds
//!   its body as canonical JSON text, and the limit counts that text.
//!   One keyspace over 256 shard files by key prefix, dirty-shard-only
//!   saves, a manifest recording the layout, and a compaction pass
//!   merging small shards.
//!   On-disk stores are multi-process safe: opens/saves/compactions
//!   run under an advisory [`FileLock`] and dirty saves merge back
//!   documents concurrent processes added, so cluster workers can
//!   share one cache directory. A save or compaction commits by
//!   renaming the manifest into place last, so a process that dies at
//!   any filesystem step leaves a store that opens with every document
//!   of every finished save; with no `fsync`, a power loss is not
//!   covered (the crash model is in [`sharded`]). Campaign result
//!   caches and profiles both live in it.
//! * [`FileStore`] — one profile per JSON file, unlimited samples.
//! * [`ProfileStore`] — the backend-independent interface the profiler
//!   and emulator use ("search the database for a matching profile"),
//!   implemented by [`FileStore`] and by [`DbProfileStore`] over a
//!   [`ShardedDb`]. The latter reproduces the paper's ~250 k-sample
//!   cap (and the Fig. 4 footnote about the largest configuration
//!   missing data samples) by dropping the samples that do not fit.

pub mod document;
pub mod error;
pub mod filestore;
mod fs;
pub mod lock;
pub mod profilestore;
pub mod sharded;

pub use document::{Document, DEFAULT_DOC_LIMIT};
pub use error::StoreError;
pub use filestore::FileStore;
pub use lock::FileLock;
pub use profilestore::{DbProfileStore, ProfileStore, SaveReport};
pub use sharded::{
    shard_of, CompactStats, SaveStats, ShardStats, ShardedDb, StoreCounters, LOCK_FILE, SHARD_COUNT,
};
