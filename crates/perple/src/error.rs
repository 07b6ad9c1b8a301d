//! The structured error taxonomy of the experiment layer.
//!
//! Fault-injected or misbehaving suite items surface here instead of
//! crashing the suite: worker panics are caught per item
//! (`std::panic::catch_unwind`), watchdog expiries are flagged by the
//! budgeted stages, and both are converted into a [`PerpleError`] the
//! resilient executor can retry, quarantine, and report.

use std::fmt;

use perple_campaign::{CampaignError, StorageKind};
use perple_convert::ConvertError;

/// Why one suite item (one test's experiment task) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PerpleError {
    /// The item's worker panicked; the payload message is captured.
    WorkerPanic {
        /// Rendered panic payload (`&str`/`String` payloads verbatim,
        /// otherwise a placeholder).
        message: String,
    },
    /// A stage's watchdog budget expired and no usable partial result
    /// remained (e.g. the run stage produced zero whole iterations).
    StageTimeout {
        /// Which stage overran: `"run"`, `"count"`, …
        stage: &'static str,
    },
    /// The test is not convertible to a perpetual test (§V-C).
    Convert(ConvertError),
    /// Invalid experiment configuration (bad CLI flag values and such).
    Config(String),
    /// Classified campaign-store damage or storage-level failure
    /// ([`StorageKind`] is the closed taxonomy `campaign fsck` reports
    /// findings under).
    Storage {
        /// The damage class.
        kind: StorageKind,
        /// What and where.
        message: String,
    },
}

impl PerpleError {
    /// Short machine-readable kind tag (used in quarantine reports).
    pub fn kind(&self) -> &'static str {
        match self {
            PerpleError::WorkerPanic { .. } => "panic",
            PerpleError::StageTimeout { .. } => "timeout",
            PerpleError::Convert(_) => "convert",
            PerpleError::Config(_) => "config",
            PerpleError::Storage { .. } => "storage",
        }
    }

    /// True for errors that a retry may resolve: panics and timeouts
    /// (perturbed-seed retry), and transient storage failures (bounded
    /// backoff). Conversion and configuration errors are deterministic in
    /// the input; non-transient storage damage needs `fsck`, not a retry.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            PerpleError::WorkerPanic { .. }
                | PerpleError::StageTimeout { .. }
                | PerpleError::Storage {
                    kind: StorageKind::Transient,
                    ..
                }
        )
    }
}

impl fmt::Display for PerpleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PerpleError::WorkerPanic { message } => write!(f, "worker panicked: {message}"),
            PerpleError::StageTimeout { stage } => {
                write!(f, "stage {stage:?} exceeded its watchdog budget")
            }
            PerpleError::Convert(e) => write!(f, "conversion failed: {e}"),
            PerpleError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            PerpleError::Storage { kind, message } => {
                write!(f, "storage failure ({kind}): {message}")
            }
        }
    }
}

impl std::error::Error for PerpleError {}

impl From<ConvertError> for PerpleError {
    fn from(e: ConvertError) -> Self {
        PerpleError::Convert(e)
    }
}

impl From<CampaignError> for PerpleError {
    fn from(e: CampaignError) -> Self {
        match e {
            CampaignError::Storage { kind, message } => PerpleError::Storage { kind, message },
            CampaignError::Io(m) => PerpleError::Storage {
                kind: StorageKind::Io,
                message: m,
            },
            CampaignError::Corrupt(m) => PerpleError::Storage {
                kind: StorageKind::ChecksumMismatch,
                message: m,
            },
            CampaignError::NotFound(m) => PerpleError::Storage {
                kind: StorageKind::Io,
                message: format!("not found: {m}"),
            },
            CampaignError::Parse(m) => PerpleError::Config(m),
        }
    }
}

/// Parses a `--inject` fault-plan spec, classifying malformed grammar as
/// [`PerpleError::Config`] — the one entry point every CLI and campaign
/// path shares, so bad plans never panic and never produce ad-hoc errors.
///
/// # Errors
/// [`PerpleError::Config`] quoting the offending spec and the grammar
/// diagnostic.
pub fn parse_fault_plan(spec: &str) -> Result<perple_sim::FaultPlan, PerpleError> {
    perple_sim::FaultPlan::parse(spec)
        .map_err(|e| PerpleError::Config(format!("bad fault plan {spec:?}: {e}")))
}

/// Renders a `catch_unwind` payload: `&str` and `String` payloads (what
/// `panic!` produces) verbatim, anything else as a placeholder.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let e = PerpleError::WorkerPanic {
            message: "boom".into(),
        };
        assert!(e.to_string().contains("boom"));
        assert_eq!(e.kind(), "panic");
        let e = PerpleError::StageTimeout { stage: "run" };
        assert!(e.to_string().contains("run"));
        assert_eq!(e.kind(), "timeout");
        let e = PerpleError::Config("bad flag".into());
        assert!(e.to_string().contains("bad flag"));
    }

    #[test]
    fn convert_errors_wrap() {
        let e: PerpleError = ConvertError::NonZeroInit {
            loc: "x".into(),
            value: 1,
        }
        .into();
        assert_eq!(e.kind(), "convert");
        assert!(!e.retryable());
    }

    #[test]
    fn only_transient_failures_are_retryable() {
        assert!(PerpleError::WorkerPanic {
            message: String::new()
        }
        .retryable());
        assert!(PerpleError::StageTimeout { stage: "count" }.retryable());
        assert!(!PerpleError::Config(String::new()).retryable());
        assert!(PerpleError::Storage {
            kind: StorageKind::Transient,
            message: String::new()
        }
        .retryable());
        assert!(!PerpleError::Storage {
            kind: StorageKind::TornWrite,
            message: String::new()
        }
        .retryable());
    }

    #[test]
    fn campaign_errors_map_into_the_storage_taxonomy() {
        let e: PerpleError = CampaignError::storage(StorageKind::TornWrite, "frame 3").into();
        assert_eq!(e.kind(), "storage");
        assert!(e.to_string().contains("torn-write"), "{e}");
        let e: PerpleError = CampaignError::Io("disk".into()).into();
        assert!(matches!(
            e,
            PerpleError::Storage {
                kind: StorageKind::Io,
                ..
            }
        ));
        let e: PerpleError = CampaignError::Corrupt("bad manifest".into()).into();
        assert!(matches!(
            e,
            PerpleError::Storage {
                kind: StorageKind::ChecksumMismatch,
                ..
            }
        ));
        let e: PerpleError = CampaignError::Parse("key".into()).into();
        assert_eq!(e.kind(), "config");
    }

    #[test]
    fn panic_payloads_render() {
        let p = std::panic::catch_unwind(|| panic!("static str")).unwrap_err();
        assert_eq!(panic_message(&*p), "static str");
        let p = std::panic::catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(&*p), "formatted 7");
        let p = std::panic::catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_message(&*p), "<non-string panic payload>");
    }
}
