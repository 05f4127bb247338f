//! # kjournal — crash durability for the K-RAD service
//!
//! An append-only write-ahead journal that makes a live `kserve`
//! session survive `kill -9`. The design leans on the property PR 3/4
//! proved end-to-end: the live engine's state is a *deterministic
//! function* of the session configuration, the injected-job stream
//! (with release stamps), and the clock. So the journal never stores
//! derived engine state — it stores the inputs, and recovery rebuilds
//! everything else by replaying them through the same engine. The
//! byte-for-byte replay bridge doubles as the recovery-correctness
//! proof: journaled completions must match the rebuilt engine's
//! completions exactly, or recovery refuses to serve.
//!
//! Three layers:
//!
//! - [`frame`] — the versioned, CRC32-per-record binary frame format
//!   ([`Record`], [`read_records`]): torn tails are detected and
//!   discarded, alien record kinds from newer writers are skipped.
//! - [`log`] — the append side ([`JournalWriter`], [`FsyncPolicy`]):
//!   group commit with `always` / `interval` / `never` fsync.
//! - [`store`] — the directory ([`JournalStore`], [`JournalDir`]): the
//!   WAL with atomic snapshot rotation, and the idempotent fold
//!   ([`SessionLog`], [`fold_records`]) that turns records back into a
//!   [`SessionImage`] — from disk at recovery, in memory while serving.
//!
//! ```
//! use kjournal::{FsyncPolicy, JournalStore, Record, SessionMeta};
//! let dir = std::env::temp_dir().join(format!("kjournal-doc-{}", std::process::id()));
//! let (mut store, recovered) = JournalStore::open(&dir, FsyncPolicy::Never).unwrap();
//! assert!(recovered.is_none());
//! store.append(&Record::SessionOpen(SessionMeta {
//!     machine: vec![4, 2],
//!     scheduler: "k-rad".into(),
//!     policy: "fifo".into(),
//!     time_policy: "event".into(),
//!     quantum: 2,
//!     seed: 42,
//! }));
//! store.commit().unwrap(); // durable against kill -9 from here on
//! drop(store);
//! let (_store, recovered) = JournalStore::open(&dir, FsyncPolicy::Never).unwrap();
//! assert_eq!(recovered.unwrap().image.meta.quantum, 2);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod crc32;
pub mod frame;
pub mod log;
pub mod store;

pub use crc32::crc32;
pub use frame::{read_records, FrameError, ReadOutcome, Record, SessionMeta, FORMAT_VERSION};
pub use log::{FsyncPolicy, JournalStats, JournalWriter};
pub use store::{
    fold_records, JobImage, JobPhase, JournalDir, JournalStore, RecoveredSession, SessionImage,
    SessionLog,
};
