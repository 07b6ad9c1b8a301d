//! # perple-serve
//!
//! A zero-dependency campaign submission server for the PerpLE
//! reproduction: `perple serve` turns the batch campaign engine into a
//! long-lived service that accepts campaign spec submissions over TCP or
//! a Unix domain socket, multiplexes them through one shared
//! content-addressed [`perple_campaign::ArtifactCache`] and journaled
//! [`perple_campaign::RunStore`], and streams per-item outcome records
//! back to the submitter as chunked JSONL — each line byte-identical to
//! the record the batch `perple campaign run` path would have written to
//! `items.json`.
//!
//! Everything is `std`-only by design (mirroring the workspace-wide
//! zero-dependency rule): the HTTP/1.1 subset in [`http`] is hand-rolled,
//! the bounded job queue in [`queue`] is a single mutex + condvar with
//! per-client admission quotas, and [`signal`] holds the only `unsafe`
//! code in the workspace (an `extern "C"` SIGTERM/SIGINT handler that
//! flips an atomic flag, and the `shutdown(2)` call that wakes the
//! blocked accept loop on drain) so that the binary crates can keep
//! `#![forbid(unsafe_code)]`.
//!
//! The crate is engine-agnostic the same way `perple-campaign` is: it
//! never converts, simulates, or counts anything. The embedding crate
//! supplies a [`SpecRunner`] — the `perple` facade implements it on top
//! of its resilient suite pool — and the server's worker threads drive
//! submissions through it. Graceful drain on SIGTERM relies on the
//! campaign engine's write-ahead journal: in-flight items are either
//! finished or journaled before exit, so `perple campaign fsck` finds
//! nothing to repair and a restarted server resumes them without
//! re-executing completed work.

// `deny` rather than the workspace-usual `forbid`: the `signal` module
// carries the one permitted `#[allow(unsafe_code)]` for its `extern "C"`
// handler registration and listener wake, and `forbid` cannot be locally
// lifted.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod queue;
pub mod server;
pub mod signal;

pub use client::{Outcome as ClientOutcome, Target};
pub use http::{ChunkedWriter, Request, Response};
pub use queue::{Job, JobQueue, JobState, QueueStats, SubmitError};
pub use server::{Bind, Server, ServerConfig};

use std::fmt;
use std::path::Path;

/// What a serve worker needs from the embedding crate: run (or resume) a
/// campaign spec against a store, reporting each finished item through a
/// callback. Object-safe so the server can hold it as `dyn SpecRunner`
/// without `perple-serve` depending on the engine-side crates.
pub trait SpecRunner: Send + Sync {
    /// Parse and execute `spec_text` against the store at `store_root`.
    ///
    /// `on_record` is called exactly once per expanded item slot, in the
    /// engine's observation order (cache hits first in slot order, then
    /// executed items as they complete): `Some(json)` carries the
    /// byte-stable rendered outcome record, `None` marks an item the
    /// executor lost. Returns the run summary as a JSON string.
    fn run(
        &self,
        spec_text: &str,
        store_root: &Path,
        on_record: &mut dyn FnMut(usize, Option<String>),
    ) -> Result<String, String>;

    /// Resume the pending run `id` at `store_root` (journal replay >
    /// cache > execute). Same observation contract as [`SpecRunner::run`].
    fn resume(
        &self,
        store_root: &Path,
        id: &str,
        on_record: &mut dyn FnMut(usize, Option<String>),
    ) -> Result<String, String>;

    /// Ids of interrupted runs at `store_root` that have a pending
    /// marker, i.e. candidates for boot-time auto-resume.
    fn pending(&self, store_root: &Path) -> Result<Vec<String>, String>;
}

/// Errors of the serve layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Socket setup or accept-loop trouble.
    Bind(String),
    /// A connection-level IO failure.
    Io(String),
    /// The peer sent something that is not the HTTP subset we speak.
    Protocol(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Bind(m) => write!(f, "bind failed: {m}"),
            ServeError::Io(m) => write!(f, "connection I/O failed: {m}"),
            ServeError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}
