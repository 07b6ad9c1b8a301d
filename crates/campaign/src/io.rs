//! The store IO shim: every byte the campaign store writes crosses a
//! numbered **boundary** here, and a [`CrashPlan`] can kill or fail the
//! process at any one of them.
//!
//! This is the storage-layer analog of the simulator's `FaultPlan`: where
//! that plan corrupts the *machine under test*, a `CrashPlan` corrupts the
//! *test harness's own durability story* — aborting at the k-th
//! write/rename/sync/mkdir boundary the way `SIGKILL` would, or failing a
//! boundary with a transient error the way a flaky filesystem would. The
//! crash-matrix suite iterates k over every boundary of a reference
//! campaign and proves that `fsck` + `resume` recover bit-identical item
//! records with zero re-execution of journaled work.
//!
//! Crash semantics are deliberately brutal: an `abort` boundary writes a
//! **torn prefix** of the intended bytes (half of them), then poisons the
//! shim — every later operation through the same [`StoreIo`] fails too, so
//! no cleanup path can accidentally "survive" the crash and tidy up what a
//! real dead process could not. Transient boundaries fail the first N
//! attempts of one operation; every operation retries with bounded backoff
//! before giving up, so a single spurious `EINTR`-class error never kills
//! a campaign.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use perple_obs::metrics::{self, Metric};

use crate::{CampaignError, StorageKind};

/// Retries after the first failed attempt of one operation.
const MAX_RETRIES: u32 = 3;
/// Backoff before retry i (milliseconds): bounded, roughly doubling.
const BACKOFF_MS: [u64; MAX_RETRIES as usize] = [1, 2, 4];

/// What an injection point does to the operation that crosses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// Simulated process death: write a torn prefix, poison the shim,
    /// fail this and every subsequent operation.
    Abort,
    /// Fail the first `failures` attempts of the operation with a
    /// transient error; the bounded-backoff retry loop absorbs up to
    /// `MAX_RETRIES` (3) of them.
    Transient {
        /// How many attempts fail before the operation succeeds.
        failures: u32,
    },
}

/// A set of injection points over the boundary counter: `(boundary index,
/// what happens there)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashPlan {
    points: Vec<(u64, CrashKind)>,
}

impl CrashPlan {
    /// The empty plan: no injections, byte-identical behaviour to a store
    /// without a shim.
    pub fn none() -> Self {
        Self::default()
    }

    /// Abort (simulated `SIGKILL`) at boundary `k`.
    pub fn abort_at(k: u64) -> Self {
        Self {
            points: vec![(k, CrashKind::Abort)],
        }
    }

    /// Fail `failures` attempts of the operation at boundary `k`.
    pub fn transient_at(k: u64, failures: u32) -> Self {
        Self {
            points: vec![(k, CrashKind::Transient { failures })],
        }
    }

    /// True iff the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    fn at(&self, boundary: u64) -> Option<CrashKind> {
        self.points
            .iter()
            .find(|(k, _)| *k == boundary)
            .map(|(_, kind)| *kind)
    }

    /// Parses the CLI grammar: comma-separated `abort@K` and
    /// `transient@K` / `transient@K:N` terms (`N` = failing attempts,
    /// default 1).
    ///
    /// # Errors
    /// A human-readable description of the malformed term.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = CrashPlan::none();
        for term in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (kind, at) = term
                .split_once('@')
                .ok_or_else(|| format!("crash term {term:?}: expected kind@boundary"))?;
            match kind.trim() {
                "abort" => {
                    let k = at
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| format!("crash term {term:?}: bad boundary index"))?;
                    plan.points.push((k, CrashKind::Abort));
                }
                "transient" => {
                    let (k, n) = match at.split_once(':') {
                        Some((k, n)) => (
                            k.trim().parse::<u64>(),
                            n.trim()
                                .parse::<u32>()
                                .map_err(|_| format!("crash term {term:?}: bad failure count"))?,
                        ),
                        None => (at.trim().parse::<u64>(), 1),
                    };
                    let k = k.map_err(|_| format!("crash term {term:?}: bad boundary index"))?;
                    plan.points.push((k, CrashKind::Transient { failures: n }));
                }
                other => return Err(format!("crash term {term:?}: unknown kind {other:?}")),
            }
        }
        Ok(plan)
    }
}

#[derive(Debug)]
struct IoState {
    plan: CrashPlan,
    boundary: AtomicU64,
    dead: AtomicBool,
}

/// The shared write shim of one store (the [`RunStore`], its journals, and
/// its [`ArtifactCache`] all clone the same handle, so one boundary
/// counter numbers every write of a campaign).
///
/// [`RunStore`]: crate::store::RunStore
/// [`ArtifactCache`]: crate::cache::ArtifactCache
#[derive(Debug, Clone)]
pub struct StoreIo {
    state: Arc<IoState>,
}

impl Default for StoreIo {
    fn default() -> Self {
        Self::unplanned()
    }
}

impl StoreIo {
    /// A shim with injections.
    pub fn new(plan: CrashPlan) -> Self {
        Self {
            state: Arc::new(IoState {
                plan,
                boundary: AtomicU64::new(0),
                dead: AtomicBool::new(false),
            }),
        }
    }

    /// A shim that injects nothing (the production default).
    pub fn unplanned() -> Self {
        Self::new(CrashPlan::none())
    }

    /// Boundaries crossed so far — the `k` domain a crash matrix iterates.
    pub fn boundaries(&self) -> u64 {
        self.state.boundary.load(Ordering::SeqCst)
    }

    /// True once an abort point fired: the simulated process is dead and
    /// every further operation fails.
    pub fn is_dead(&self) -> bool {
        self.state.dead.load(Ordering::SeqCst)
    }

    /// Crosses one boundary: checks the poison flag, numbers the
    /// operation, and looks up the plan.
    fn cross(&self, path: &Path) -> Result<Option<CrashKind>, CampaignError> {
        if self.is_dead() {
            return Err(self.died(path));
        }
        metrics::add(Metric::StoreIoBoundaries, 1);
        let k = self.state.boundary.fetch_add(1, Ordering::SeqCst);
        Ok(self.state.plan.at(k))
    }

    fn died(&self, path: &Path) -> CampaignError {
        self.state.dead.store(true, Ordering::SeqCst);
        CampaignError::storage(
            StorageKind::CrashInjected,
            format!("{}: injected crash", path.display()),
        )
    }

    /// The bounded-backoff retry loop of one operation: the first
    /// `injected` attempts fail with a synthetic transient error, then
    /// `attempt` runs for real; each failure (injected or real) costs one
    /// retry slot.
    fn retry<T>(
        &self,
        path: &Path,
        mut injected: u32,
        mut attempt: impl FnMut() -> std::io::Result<T>,
    ) -> Result<T, CampaignError> {
        let mut retries = 0u32;
        loop {
            let (result, was_injected) = if injected > 0 {
                injected -= 1;
                (
                    Err(std::io::Error::new(
                        std::io::ErrorKind::Interrupted,
                        "injected transient failure",
                    )),
                    true,
                )
            } else {
                (attempt(), false)
            };
            match result {
                Ok(v) => return Ok(v),
                Err(e) if retries < MAX_RETRIES => {
                    metrics::add(Metric::StoreTransientRetries, 1);
                    std::thread::sleep(Duration::from_millis(BACKOFF_MS[retries as usize]));
                    retries += 1;
                    let _ = e;
                }
                Err(e) => {
                    let kind = if was_injected {
                        StorageKind::Transient
                    } else {
                        StorageKind::Io
                    };
                    return Err(CampaignError::storage(
                        kind,
                        format!("{}: {e} (after {retries} retries)", path.display()),
                    ));
                }
            }
        }
    }

    /// One boundary-crossing operation: `attempt` is retried with bounded
    /// backoff (absorbing injected transients and real spurious errors),
    /// `torn` is what an abort leaves half-done on disk.
    fn op<T>(
        &self,
        path: &Path,
        attempt: impl FnMut() -> std::io::Result<T>,
        torn: impl FnOnce(),
    ) -> Result<T, CampaignError> {
        match self.cross(path)? {
            Some(CrashKind::Abort) => {
                torn();
                Err(self.died(path))
            }
            Some(CrashKind::Transient { failures }) => self.retry(path, failures, attempt),
            None => self.retry(path, 0, attempt),
        }
    }

    /// Atomic document write: temp file + rename, each its own boundary.
    /// An abort at the write boundary leaves a torn `.tmp`; an abort at
    /// the rename boundary leaves a complete `.tmp` that never landed.
    ///
    /// The temp name is unique per writer (pid + a process-wide counter),
    /// so two threads — or two processes — racing to write the *same*
    /// final path (e.g. concurrent campaigns caching one fingerprint)
    /// each stage their own complete bytes and the landed entry is always
    /// one writer's whole document, never an interleaving. The name still
    /// ends in `.tmp`, which is what `fsck` sweeps for stray temp files.
    pub fn write_atomic(&self, path: &Path, content: &str) -> Result<(), CampaignError> {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = path.with_extension(format!(
            "{}.{}.tmp",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        self.op(
            &tmp,
            || fs::write(&tmp, content),
            || {
                let _ = fs::write(&tmp, &content.as_bytes()[..content.len() / 2]);
            },
        )?;
        self.op(path, || fs::rename(&tmp, path), || {})
    }

    /// Appends raw bytes to an open file (one boundary). An abort writes
    /// half the bytes — a torn frame the journal replay must detect.
    pub fn append(
        &self,
        path: &Path,
        file: &mut fs::File,
        bytes: &[u8],
    ) -> Result<(), CampaignError> {
        match self.cross(path)? {
            Some(CrashKind::Abort) => {
                let _ = file.write_all(&bytes[..bytes.len() / 2]);
                let _ = file.flush();
                Err(self.died(path))
            }
            Some(CrashKind::Transient { failures }) => {
                self.retry(path, failures, || file.write_all(bytes))
            }
            None => self.retry(path, 0, || file.write_all(bytes)),
        }
    }

    /// Appends one line (with trailing newline) to a file by path,
    /// creating it if needed (one boundary). An abort writes half the
    /// line — the torn trailing `runs.jsonl` line `fsck` classifies.
    pub fn append_line(&self, path: &Path, line: &str) -> Result<(), CampaignError> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.op(
            path,
            || {
                let mut f = fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?;
                f.write_all(framed.as_bytes())
            },
            || {
                if let Ok(mut f) = fs::OpenOptions::new().create(true).append(true).open(path) {
                    let _ = f.write_all(&framed.as_bytes()[..framed.len() / 2]);
                }
            },
        )
    }

    /// Syncs file contents to stable storage (one boundary). An abort
    /// dies *before* the sync — data written but not yet durable, exactly
    /// the window a real crash exposes.
    pub fn sync(&self, path: &Path, file: &fs::File) -> Result<(), CampaignError> {
        metrics::add(Metric::StoreFsyncs, 1);
        self.op(path, || file.sync_all(), || {})
    }

    /// Creates one directory as an atomic reservation (one boundary):
    /// `Ok(true)` if this call created it, `Ok(false)` if it already
    /// existed (the reservation lost the race). An abort dies before
    /// creating anything.
    pub fn create_dir(&self, path: &Path) -> Result<bool, CampaignError> {
        self.op(
            path,
            || match fs::create_dir(path) {
                Ok(()) => Ok(true),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(false),
                Err(e) => Err(e),
            },
            || {},
        )
    }

    /// Creates a directory chain (one boundary; idempotent).
    pub fn create_dir_all(&self, path: &Path) -> Result<(), CampaignError> {
        self.op(path, || fs::create_dir_all(path), || {})
    }

    /// Removes a file (one boundary). An abort dies with the file intact.
    pub fn remove_file(&self, path: &Path) -> Result<(), CampaignError> {
        self.op(path, || fs::remove_file(path), || {})
    }

    /// Truncates a file to `len` bytes (one boundary) — how torn journal
    /// tails and torn index lines are amputated.
    pub fn truncate(&self, path: &Path, len: u64) -> Result<(), CampaignError> {
        self.op(
            path,
            || fs::OpenOptions::new().write(true).open(path)?.set_len(len),
            || {},
        )
    }

    /// Renames a file (one boundary) — how corrupt cache entries move to
    /// quarantine. An abort dies with the source intact.
    pub fn rename(&self, from: &Path, to: &Path) -> Result<(), CampaignError> {
        self.op(to, || fs::rename(from, to), || {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("perple-campaign-io-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The single stranded `*.tmp` file in `dir` (temp names carry a
    /// unique pid+sequence infix, so tests locate them by extension).
    fn stranded_tmp(dir: &Path) -> PathBuf {
        let temps: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert_eq!(
            temps.len(),
            1,
            "expected exactly one stranded tmp: {temps:?}"
        );
        temps.into_iter().next().unwrap()
    }

    #[test]
    fn plan_grammar_round_trips_terms() {
        let plan = CrashPlan::parse("abort@5").unwrap();
        assert_eq!(plan.at(5), Some(CrashKind::Abort));
        assert_eq!(plan.at(4), None);
        let plan = CrashPlan::parse("transient@3, transient@7:2").unwrap();
        assert_eq!(plan.at(3), Some(CrashKind::Transient { failures: 1 }));
        assert_eq!(plan.at(7), Some(CrashKind::Transient { failures: 2 }));
        assert!(CrashPlan::parse("").unwrap().is_empty());
        for bad in ["abort", "abort@x", "transient@1:y", "explode@3"] {
            assert!(CrashPlan::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn abort_tears_the_write_and_poisons_the_shim() {
        let dir = tmp("abort");
        let io = StoreIo::new(CrashPlan::abort_at(0));
        let path = dir.join("doc.json");
        let err = io.write_atomic(&path, "0123456789").unwrap_err();
        assert!(err.is_crash(), "{err}");
        assert!(!path.exists(), "rename never happened");
        let torn = fs::read(stranded_tmp(&dir)).unwrap();
        assert_eq!(torn, b"01234", "half the bytes landed");
        // The shim is dead: every further op fails without touching disk.
        assert!(io.is_dead());
        let err = io.write_atomic(&dir.join("other.json"), "x").unwrap_err();
        assert!(err.is_crash(), "{err}");
        assert!(!dir.join("other.json").exists());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn abort_at_the_rename_boundary_strands_the_tmp() {
        let dir = tmp("rename");
        let io = StoreIo::new(CrashPlan::abort_at(1));
        let path = dir.join("doc.json");
        assert!(io.write_atomic(&path, "full content").is_err());
        assert!(!path.exists());
        assert_eq!(
            fs::read_to_string(stranded_tmp(&dir)).unwrap(),
            "full content",
            "write boundary completed; rename boundary crashed"
        );
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn transient_failures_are_absorbed_by_retries() {
        let dir = tmp("transient");
        let io = StoreIo::new(CrashPlan::transient_at(0, MAX_RETRIES));
        let path = dir.join("doc.json");
        io.write_atomic(&path, "survived").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "survived");
        assert!(!io.is_dead());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn transient_beyond_the_retry_budget_is_a_storage_error() {
        let dir = tmp("exhaust");
        let io = StoreIo::new(CrashPlan::transient_at(0, MAX_RETRIES + 1));
        let err = io.write_atomic(&dir.join("doc.json"), "never").unwrap_err();
        assert!(
            matches!(
                err,
                CampaignError::Storage {
                    kind: StorageKind::Transient,
                    ..
                }
            ),
            "{err}"
        );
        assert!(!io.is_dead(), "transient exhaustion is not a crash");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn create_dir_reports_the_race_loser() {
        let dir = tmp("reserve");
        let io = StoreIo::unplanned();
        let d = dir.join("run-0001");
        assert!(io.create_dir(&d).unwrap(), "first reservation wins");
        assert!(!io.create_dir(&d).unwrap(), "second reservation loses");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn boundaries_number_every_operation() {
        let dir = tmp("count");
        let io = StoreIo::unplanned();
        io.write_atomic(&dir.join("a.json"), "a").unwrap(); // write + rename
        io.append_line(&dir.join("idx.jsonl"), "{}").unwrap(); // append
        io.create_dir(&dir.join("d")).unwrap(); // mkdir
        assert_eq!(io.boundaries(), 4);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn concurrent_writers_to_one_path_never_land_a_torn_document() {
        let dir = tmp("racewrite");
        let path = dir.join("entry.json");
        for round in 0..4 {
            std::thread::scope(|s| {
                for writer in 0..8u8 {
                    let path = path.clone();
                    s.spawn(move || {
                        let io = StoreIo::unplanned();
                        // Each writer's whole document is one repeated
                        // letter, so any interleaving is detectable.
                        let letter = (b'a' + writer) as char;
                        let content = letter.to_string().repeat(64 * 1024);
                        io.write_atomic(&path, &content).unwrap();
                    });
                }
            });
            let landed = fs::read_to_string(&path).unwrap();
            assert_eq!(landed.len(), 64 * 1024, "round {round}: torn length");
            let first = landed.chars().next().unwrap();
            assert!(
                landed.chars().all(|c| c == first),
                "round {round}: interleaved writers"
            );
        }
        // Unique temp names mean no .tmp strays survive a clean race.
        let strays = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .count();
        assert_eq!(strays, 0);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_append_line_leaves_a_half_line() {
        let dir = tmp("tornline");
        let path = dir.join("runs.jsonl");
        let io = StoreIo::unplanned();
        io.append_line(&path, "{\"id\":\"a-0001\"}").unwrap();
        let io = StoreIo::new(CrashPlan::abort_at(0));
        assert!(io.append_line(&path, "{\"id\":\"a-0002\"}").is_err());
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"id\":\"a-0001\"}\n"), "{text:?}");
        assert!(!text.ends_with('\n'), "second line is torn: {text:?}");
        let _ = fs::remove_dir_all(dir);
    }
}
