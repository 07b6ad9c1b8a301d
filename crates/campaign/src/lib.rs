//! # perple-campaign
//!
//! The persistence and incrementality layer of the PerpLE reproduction:
//! memory consistency testing as a **repeated, queryable process** rather
//! than a single execution.
//!
//! Three cooperating pieces:
//!
//! * [`store`] — an append-only, on-disk run store under `results/store/`:
//!   one directory per campaign run holding a manifest (spec, config,
//!   git-describe, wall/stage timings) plus deterministic per-item outcome
//!   records, and an append-only `runs.jsonl` index;
//! * [`cache`] — a content-addressed artifact cache (`cas/`) keyed by a
//!   [`fingerprint`] of the item's inputs (litmus source bytes, conversion
//!   options, simulator config, seed): conversion artifacts and counted
//!   results are both cached, so a warm re-run of an unchanged suite item
//!   is a cache hit that skips convert → simulate → count entirely;
//! * [`engine`] — executes a declarative [`spec::CampaignSpec`]
//!   (tests × seeds under one config) with cache-hit skipping, delegating
//!   the actual misses to a caller-supplied executor (the `perple` facade
//!   runs them on its resilient suite pool);
//! * [`compare`] — the regression gate: pairwise outcome comparison
//!   between two stored runs (new forbidden-outcome observations, allowed
//!   frequency swings, injected machine faults, nondeterminism, timing)
//!   with text and JSON reports, suitable as a CI exit gate.
//!
//! The crate is deliberately engine-agnostic: it never converts, simulates,
//! or counts anything itself, so it depends only on `perple-analysis` (for
//! the shared byte-stable [`perple_analysis::jsonout`] writer every file in
//! the store is serialized with).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod compare;
pub mod engine;
pub mod fingerprint;
pub mod fsck;
pub mod io;
pub mod journal;
pub mod spec;
pub mod store;

pub use cache::ArtifactCache;
pub use compare::{
    compare_records, compare_runs, metric_notes, CompareConfig, CompareReport, Regression,
    RegressionKind,
};
pub use engine::{
    resume_campaign, run_campaign, CampaignItem, DurabilityPolicy, ExecOutcome, LintSummary,
    PendingRun, RunMeta, RunSummary, StageWallMs,
};
pub use fingerprint::{Fingerprint, Hasher, CACHE_FORMAT_VERSION};
pub use fsck::{fsck, Finding, FsckReport};
pub use io::{CrashKind, CrashPlan, StoreIo};
pub use journal::{FsyncPolicy, Journal, JournalHeader, Replay};
pub use spec::CampaignSpec;
pub use store::{git_describe, OutcomeRecord, RunStore};

use std::fmt;

/// What kind of storage damage (or storage-level failure) was detected.
/// The closed taxonomy `campaign fsck` classifies findings under and the
/// `PerpleError::Storage` wrapper surfaces to the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageKind {
    /// An interrupted write left a truncated artifact behind: a torn
    /// trailing journal frame, an unterminated `runs.jsonl` line, a
    /// leftover `*.tmp` file.
    TornWrite,
    /// Stored bytes exist but fail their checksum or schema: a mid-file
    /// journal checksum mismatch, an unparseable manifest, a cache entry
    /// whose content disagrees with its content-addressed name.
    ChecksumMismatch,
    /// A run directory that belongs to no completed or resumable run.
    OrphanRun,
    /// The `runs.jsonl` index and the run directories disagree: an index
    /// line pointing at a missing run, or a finalized run missing its
    /// index line.
    StaleIndex,
    /// Two writers raced for the same run id and the atomic directory
    /// reservation could not be won.
    Contention,
    /// A `CrashPlan` injection point fired (simulated process death); all
    /// subsequent IO through the same shim fails with this kind too.
    CrashInjected,
    /// A transient IO failure persisted through every bounded-backoff
    /// retry.
    Transient,
    /// Any other filesystem-level failure.
    Io,
}

impl StorageKind {
    /// Stable kebab-case tag (used in fsck reports and JSON output).
    pub fn name(self) -> &'static str {
        match self {
            StorageKind::TornWrite => "torn-write",
            StorageKind::ChecksumMismatch => "checksum-mismatch",
            StorageKind::OrphanRun => "orphan-run",
            StorageKind::StaleIndex => "stale-index",
            StorageKind::Contention => "contention",
            StorageKind::CrashInjected => "crash-injected",
            StorageKind::Transient => "transient",
            StorageKind::Io => "io",
        }
    }
}

impl fmt::Display for StorageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors of the campaign layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// Filesystem trouble (path and cause).
    Io(String),
    /// A spec or stored document failed to parse.
    Parse(String),
    /// A referenced run id does not exist (or is ambiguous).
    NotFound(String),
    /// A stored document exists but its content is not what the schema
    /// requires.
    Corrupt(String),
    /// Classified storage damage or storage-level failure.
    Storage {
        /// The damage class.
        kind: StorageKind,
        /// What and where.
        message: String,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Io(m) => write!(f, "store I/O failed: {m}"),
            CampaignError::Parse(m) => write!(f, "parse error: {m}"),
            CampaignError::NotFound(m) => write!(f, "run not found: {m}"),
            CampaignError::Corrupt(m) => write!(f, "corrupt store document: {m}"),
            CampaignError::Storage { kind, message } => {
                write!(f, "storage failure ({kind}): {message}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

impl CampaignError {
    /// Wraps an `io::Error` with the path it happened on.
    pub fn io(path: &std::path::Path, e: std::io::Error) -> Self {
        CampaignError::Io(format!("{}: {e}", path.display()))
    }

    /// A classified storage error.
    pub fn storage(kind: StorageKind, message: impl Into<String>) -> Self {
        CampaignError::Storage {
            kind,
            message: message.into(),
        }
    }

    /// True iff the error is an injected (or propagated) simulated crash:
    /// the IO shim died at a `CrashPlan` point and nothing may be written
    /// through it again. Callers must treat this as process death — no
    /// degradation, no cleanup, propagate.
    pub fn is_crash(&self) -> bool {
        matches!(
            self,
            CampaignError::Storage {
                kind: StorageKind::CrashInjected,
                ..
            }
        )
    }
}
