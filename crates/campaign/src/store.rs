//! The append-only on-disk run store.
//!
//! Layout under the store root (default `results/store/`):
//!
//! ```text
//! results/store/
//!   runs.jsonl                  append-only index, one line per run
//!   runs/<id>/manifest.json     spec, config, git-describe, timings
//!   runs/<id>/items.json        deterministic per-item outcome records
//!   cas/...                     the content-addressed cache (see `cache`)
//! ```
//!
//! Runs are **append-only**: a run directory is written once (files land
//! via temp-file + rename so a crash never leaves a half-written manifest
//! behind a valid name) and never mutated; re-running a campaign creates a
//! new run id. `items.json` contains only deterministic outcome fields —
//! counts, seeds, fingerprints, digests, never wall-clock values — so two
//! runs of an identical campaign produce **byte-identical** item files.
//! All wall-clock data (created-at, stage walls) lives in the manifest.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use perple_analysis::jsonout::{self, Json};

use crate::io::StoreIo;
use crate::{CampaignError, StorageKind};

/// Attempts to win a run-id reservation before declaring contention.
const RESERVE_ATTEMPTS: u32 = 32;

/// One item's deterministic outcome: what the counters saw, never when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutcomeRecord {
    /// Test name.
    pub test: String,
    /// The spec-level seed axis value this item ran under.
    pub seed: u64,
    /// Hex cache fingerprint of the item's complete inputs.
    pub fingerprint: String,
    /// True iff the target outcome is forbidden under the item's memory
    /// model (any nonzero count is then a consistency violation).
    pub forbidden: bool,
    /// Memory model the item ran under; `None` for the default (x86-TSO),
    /// and then omitted from the JSON form so default-model records are
    /// byte-identical to pre-model stores.
    pub model: Option<String>,
    /// Target occurrences, heuristic counter.
    pub heuristic: u64,
    /// Target occurrences, exhaustive counter (or the heuristic counts
    /// when `degraded`).
    pub exhaustive: u64,
    /// True iff the exhaustive count degraded to heuristic on budget
    /// expiry.
    pub degraded: bool,
    /// Whole iterations executed.
    pub iterations: u64,
    /// False iff the run stage was truncated by its budget.
    pub run_complete: bool,
    /// Injected machine faults observed during the run.
    pub faults: u64,
    /// Content digest of the run's buffers (`PerpleRun::content_digest`);
    /// equal fingerprints must imply equal digests.
    pub digest: u64,
    /// True iff every attempt failed and the item carries no counts.
    pub quarantined: bool,
    /// Failure kind that quarantined the item (`panic`, `timeout`, …).
    pub fault_kind: Option<String>,
}

impl OutcomeRecord {
    /// The identity compare matches items on: `(test, seed)`.
    pub fn key(&self) -> (String, u64) {
        (self.test.clone(), self.seed)
    }

    /// Observed target frequency (occurrences per iteration, heuristic
    /// counter); 0 for empty runs.
    pub fn rate(&self) -> f64 {
        if self.iterations == 0 {
            return 0.0;
        }
        self.heuristic as f64 / self.iterations as f64
    }

    /// The record as a stable-key-order JSON object. The `model` key is
    /// present only for non-default models.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("test", Json::from(self.test.as_str())),
            ("seed", Json::from(self.seed)),
            ("fingerprint", Json::from(self.fingerprint.as_str())),
            ("forbidden", Json::from(self.forbidden)),
        ];
        if let Some(model) = &self.model {
            fields.push(("model", Json::from(model.as_str())));
        }
        fields.extend([
            ("heuristic", Json::from(self.heuristic)),
            ("exhaustive", Json::from(self.exhaustive)),
            ("degraded", Json::from(self.degraded)),
            ("iterations", Json::from(self.iterations)),
            ("run_complete", Json::from(self.run_complete)),
            ("faults", Json::from(self.faults)),
            ("digest", Json::from(self.digest)),
            ("quarantined", Json::from(self.quarantined)),
            (
                "fault_kind",
                match &self.fault_kind {
                    Some(k) => Json::from(k.as_str()),
                    None => Json::Null,
                },
            ),
        ]);
        Json::obj(fields)
    }

    /// Parses a record back from its JSON form.
    ///
    /// # Errors
    /// [`CampaignError::Corrupt`] when a required field is missing or
    /// mistyped.
    pub fn from_json(v: &Json) -> Result<Self, CampaignError> {
        let need = |field: &'static str| {
            move || CampaignError::Corrupt(format!("outcome record is missing {field:?}"))
        };
        Ok(Self {
            test: v
                .get("test")
                .and_then(Json::as_str)
                .ok_or_else(need("test"))?
                .to_owned(),
            seed: v
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or_else(need("seed"))?,
            fingerprint: v
                .get("fingerprint")
                .and_then(Json::as_str)
                .ok_or_else(need("fingerprint"))?
                .to_owned(),
            forbidden: v
                .get("forbidden")
                .and_then(Json::as_bool)
                .ok_or_else(need("forbidden"))?,
            model: v.get("model").and_then(Json::as_str).map(str::to_owned),
            heuristic: v
                .get("heuristic")
                .and_then(Json::as_u64)
                .ok_or_else(need("heuristic"))?,
            exhaustive: v
                .get("exhaustive")
                .and_then(Json::as_u64)
                .ok_or_else(need("exhaustive"))?,
            degraded: v
                .get("degraded")
                .and_then(Json::as_bool)
                .ok_or_else(need("degraded"))?,
            iterations: v
                .get("iterations")
                .and_then(Json::as_u64)
                .ok_or_else(need("iterations"))?,
            run_complete: v
                .get("run_complete")
                .and_then(Json::as_bool)
                .ok_or_else(need("run_complete"))?,
            faults: v
                .get("faults")
                .and_then(Json::as_u64)
                .ok_or_else(need("faults"))?,
            digest: v
                .get("digest")
                .and_then(Json::as_u64)
                .ok_or_else(need("digest"))?,
            quarantined: v
                .get("quarantined")
                .and_then(Json::as_bool)
                .ok_or_else(need("quarantined"))?,
            fault_kind: v
                .get("fault_kind")
                .and_then(Json::as_str)
                .map(str::to_owned),
        })
    }
}

/// Handle on one store root.
#[derive(Debug, Clone)]
pub struct RunStore {
    root: PathBuf,
    io: StoreIo,
}

impl RunStore {
    /// The conventional store location: the `PERPLE_STORE` environment
    /// variable when set and non-empty, `results/store` (relative to the
    /// working directory) otherwise. `--store DIR` overrides both.
    pub fn default_root() -> PathBuf {
        match std::env::var_os("PERPLE_STORE") {
            Some(dir) if !dir.is_empty() => PathBuf::from(dir),
            _ => PathBuf::from("results/store"),
        }
    }

    /// Opens (creating if needed) a store at `root` with a production
    /// (injection-free) IO shim.
    ///
    /// # Errors
    /// [`CampaignError::Io`] if the directories cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, CampaignError> {
        Self::open_with(root, StoreIo::unplanned())
    }

    /// Opens a store whose every write crosses the given shim — the entry
    /// point of the crash matrix.
    ///
    /// # Errors
    /// [`CampaignError::Io`] if the directories cannot be created.
    pub fn open_with(root: impl Into<PathBuf>, io: StoreIo) -> Result<Self, CampaignError> {
        let root = root.into();
        fs::create_dir_all(root.join("runs")).map_err(|e| CampaignError::io(&root, e))?;
        Ok(Self { root, io })
    }

    /// The store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The store's IO shim (shared with its cache and journals).
    pub fn io(&self) -> &StoreIo {
        &self.io
    }

    /// The directory of one run.
    pub fn run_dir(&self, id: &str) -> PathBuf {
        self.root.join("runs").join(id)
    }

    /// Allocates the next run id for a campaign name: `<name>-NNNN` with
    /// the smallest unused sequence number.
    pub fn next_run_id(&self, name: &str) -> String {
        let prefix = format!("{name}-");
        let mut max = 0u64;
        if let Ok(entries) = fs::read_dir(self.root.join("runs")) {
            for entry in entries.flatten() {
                let file = entry.file_name();
                let Some(rest) = file
                    .to_string_lossy()
                    .strip_prefix(&prefix)
                    .map(str::to_owned)
                else {
                    continue;
                };
                if let Ok(n) = rest.parse::<u64>() {
                    max = max.max(n);
                }
            }
        }
        format!("{name}-{:04}", max + 1)
    }

    /// Atomically reserves the next run id for `name`: the run directory
    /// itself is the lock (`create_dir` either wins or loses, never
    /// both), so two concurrent campaigns against one store can never
    /// claim the same id.
    ///
    /// # Errors
    /// [`CampaignError::Storage`] with [`StorageKind::Contention`] if the
    /// reservation loses the race `RESERVE_ATTEMPTS` (32) times in a row.
    pub fn begin_run(&self, name: &str) -> Result<String, CampaignError> {
        for _ in 0..RESERVE_ATTEMPTS {
            let id = self.next_run_id(name);
            if self.io.create_dir(&self.run_dir(&id))? {
                return Ok(id);
            }
        }
        Err(CampaignError::storage(
            StorageKind::Contention,
            format!(
                "could not reserve a {name:?} run id in {RESERVE_ATTEMPTS} attempts \
                 (another campaign is racing this store)"
            ),
        ))
    }

    /// The pending marker of a reserved-but-unfinalized run; its presence
    /// (without a manifest) is what makes a run **resumable**.
    pub fn pending_path(&self, id: &str) -> PathBuf {
        self.run_dir(id).join("pending.json")
    }

    /// The write-ahead journal of a run.
    pub fn journal_path(&self, id: &str) -> PathBuf {
        self.run_dir(id).join("journal.bin")
    }

    /// Writes the pending marker: everything resume needs to rebuild the
    /// run (the spec text and the original run metadata).
    ///
    /// # Errors
    /// [`CampaignError::Storage`] on IO failure or injected crash.
    pub fn write_pending(&self, id: &str, pending: &Json) -> Result<(), CampaignError> {
        self.io
            .write_atomic(&self.pending_path(id), &pending.render())
    }

    /// Loads the pending marker of an interrupted run.
    ///
    /// # Errors
    /// [`CampaignError::NotFound`] if the run has no pending marker (it
    /// finished, or never started), [`CampaignError::Corrupt`] if the
    /// marker does not parse.
    pub(crate) fn load_pending(&self, id: &str) -> Result<Json, CampaignError> {
        let path = self.pending_path(id);
        let text = fs::read_to_string(&path)
            .map_err(|_| CampaignError::NotFound(format!("run {id:?} is not resumable")))?;
        jsonout::parse(&text)
            .map_err(|e| CampaignError::Corrupt(format!("{}: {e}", path.display())))
    }

    /// Run ids that were reserved but never finalized (pending marker
    /// present, manifest absent) — the resumable set, oldest id first.
    pub fn pending_runs(&self) -> Vec<String> {
        let Ok(entries) = fs::read_dir(self.root.join("runs")) else {
            return Vec::new();
        };
        let mut ids: Vec<String> = entries
            .flatten()
            .filter_map(|e| {
                let id = e.file_name().to_string_lossy().into_owned();
                let dir = e.path();
                (dir.join("pending.json").exists() && !dir.join("manifest.json").exists())
                    .then_some(id)
            })
            .collect();
        ids.sort();
        ids
    }

    /// Finalizes a run whose directory was reserved by [`RunStore::begin_run`]:
    /// writes `items.json` and `manifest.json` (atomically per file),
    /// clears the pending marker, appends the index line. After this the
    /// run is complete and immutable.
    ///
    /// # Errors
    /// [`CampaignError::Storage`] on IO failure or injected crash.
    pub fn finalize_run(
        &self,
        id: &str,
        manifest: &Json,
        items: &[OutcomeRecord],
    ) -> Result<(), CampaignError> {
        let dir = self.run_dir(id);
        let items_doc = Json::obj(vec![
            ("schema", Json::from(1u64)),
            (
                "items",
                Json::Arr(items.iter().map(OutcomeRecord::to_json).collect()),
            ),
        ]);
        self.io
            .write_atomic(&dir.join("items.json"), &items_doc.render())?;
        self.io
            .write_atomic(&dir.join("manifest.json"), &manifest.render())?;
        // Manifest down, marker up: from here the run is complete even if
        // the index append below is lost (fsck re-derives the line).
        if self.pending_path(id).exists() {
            self.io.remove_file(&self.pending_path(id))?;
        }
        self.append_index(manifest)
    }

    /// The index line of one manifest (also how `fsck --repair` rebuilds
    /// the index from surviving manifests).
    pub(crate) fn index_line(manifest: &Json) -> Json {
        Json::obj(vec![
            ("id", manifest.get("id").cloned().unwrap_or(Json::Null)),
            ("name", manifest.get("name").cloned().unwrap_or(Json::Null)),
            (
                "created_unix_ms",
                manifest
                    .get("created_unix_ms")
                    .cloned()
                    .unwrap_or(Json::Null),
            ),
            (
                "counts",
                manifest.get("counts").cloned().unwrap_or(Json::Null),
            ),
        ])
    }

    /// The index file path.
    pub fn index_path(&self) -> PathBuf {
        self.root.join("runs.jsonl")
    }

    /// Appends one line to the `runs.jsonl` index. A torn trailing
    /// partial line from an earlier crash is amputated first, so a clean
    /// append also repairs the index's framing.
    fn append_index(&self, manifest: &Json) -> Result<(), CampaignError> {
        let path = self.index_path();
        if !ends_at_line_boundary(&path) {
            if let Ok(existing) = fs::read(&path) {
                let keep = existing
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |p| p + 1);
                self.io.truncate(&path, keep as u64)?;
            }
        }
        self.io
            .append_line(&path, &Self::index_line(manifest).render())
    }

    /// Every index line, oldest first. A torn trailing line (an append
    /// that died mid-write) is skipped — the listing must survive a
    /// crash; `fsck` reports and repairs the damage.
    ///
    /// # Errors
    /// [`CampaignError::Corrupt`] if a line **before** the final one is
    /// unparseable (that is corruption, not a torn append).
    pub fn list(&self) -> Result<Vec<Json>, CampaignError> {
        let path = self.index_path();
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(CampaignError::io(&path, e)),
        };
        let lines: Vec<&str> = text
            .split('\n')
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect();
        let mut parsed = Vec::with_capacity(lines.len());
        for (i, line) in lines.iter().enumerate() {
            match jsonout::parse(line) {
                Ok(v) => parsed.push(v),
                Err(_) if i + 1 == lines.len() => break, // torn trailing line
                Err(e) => {
                    return Err(CampaignError::Corrupt(format!(
                        "{}: line {}: {e}",
                        path.display(),
                        i + 1
                    )));
                }
            }
        }
        Ok(parsed)
    }

    /// Resolves a run reference to an exact id: an exact id, a unique id
    /// prefix, or `latest` (most recently appended index entry).
    ///
    /// # Errors
    /// [`CampaignError::NotFound`] for unknown or ambiguous references.
    pub fn resolve(&self, reference: &str) -> Result<String, CampaignError> {
        let index = self.list()?;
        let ids: Vec<String> = index
            .iter()
            .filter_map(|l| l.get("id").and_then(Json::as_str).map(str::to_owned))
            .collect();
        if reference == "latest" {
            return ids
                .last()
                .cloned()
                .ok_or_else(|| CampaignError::NotFound("store has no runs".to_owned()));
        }
        if ids.iter().any(|i| i == reference) {
            return Ok(reference.to_owned());
        }
        let matches: Vec<&String> = ids.iter().filter(|i| i.starts_with(reference)).collect();
        match matches.as_slice() {
            [one] => Ok((*one).clone()),
            [] => Err(CampaignError::NotFound(format!(
                "no run matches {reference:?}"
            ))),
            many => Err(CampaignError::NotFound(format!(
                "{reference:?} is ambiguous ({} matches)",
                many.len()
            ))),
        }
    }

    /// Loads a run's manifest.
    ///
    /// # Errors
    /// [`CampaignError::NotFound`] for missing runs, [`CampaignError::Corrupt`]
    /// for unparseable manifests.
    pub fn load_manifest(&self, id: &str) -> Result<Json, CampaignError> {
        let path = self.run_dir(id).join("manifest.json");
        let text = fs::read_to_string(&path)
            .map_err(|_| CampaignError::NotFound(format!("run {id:?} has no manifest")))?;
        jsonout::parse(&text)
            .map_err(|e| CampaignError::Corrupt(format!("{}: {e}", path.display())))
    }

    /// Loads a run's outcome records.
    ///
    /// # Errors
    /// [`CampaignError::NotFound`] / [`CampaignError::Corrupt`] as for
    /// [`RunStore::load_manifest`].
    pub fn load_items(&self, id: &str) -> Result<Vec<OutcomeRecord>, CampaignError> {
        let path = self.run_dir(id).join("items.json");
        let text = fs::read_to_string(&path)
            .map_err(|_| CampaignError::NotFound(format!("run {id:?} has no items file")))?;
        let doc = jsonout::parse(&text)
            .map_err(|e| CampaignError::Corrupt(format!("{}: {e}", path.display())))?;
        doc.get("items")
            .and_then(Json::as_arr)
            .ok_or_else(|| {
                CampaignError::Corrupt(format!("{}: missing \"items\" array", path.display()))
            })?
            .iter()
            .map(OutcomeRecord::from_json)
            .collect()
    }
}

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// outside a git checkout — recorded in every run manifest so stored
/// results can be traced back to the code that produced them.
///
/// Runs `git` once per process and memoises the answer: the running
/// binary cannot change while it runs, so the first answer is the
/// accurate one for every later manifest (warm re-runs and server
/// submissions would otherwise each pay a child process).
pub fn git_describe() -> String {
    static DESCRIBE: OnceLock<String> = OnceLock::new();
    DESCRIBE
        .get_or_init(|| {
            std::process::Command::new("git")
                .args(["describe", "--always", "--dirty", "--tags"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_owned())
        })
        .clone()
}

/// True when the file at `path` is missing, empty, or ends in `\n`.
/// Only its last byte is read, so an index append costs the same however
/// many runs the index already lists; a torn tail is the rare case that
/// reads the whole file.
fn ends_at_line_boundary(path: &Path) -> bool {
    use std::io::{Read, Seek, SeekFrom};
    let mut last = [b'\n'];
    if let Ok(mut f) = fs::File::open(path) {
        if f.seek(SeekFrom::End(-1)).is_ok() {
            let _ = f.read_exact(&mut last);
        }
    }
    last[0] == b'\n'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> (PathBuf, RunStore) {
        let dir = std::env::temp_dir().join(format!(
            "perple-campaign-store-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = RunStore::open(&dir).unwrap();
        (dir, store)
    }

    fn record(test: &str, seed: u64, heuristic: u64) -> OutcomeRecord {
        OutcomeRecord {
            test: test.to_owned(),
            seed,
            fingerprint: format!("{:032x}", 0xABCDu128 + seed as u128),
            forbidden: false,
            model: None,
            heuristic,
            exhaustive: heuristic + 1,
            degraded: false,
            iterations: 400,
            run_complete: true,
            faults: 0,
            digest: 0xDEAD_BEEF ^ seed,
            quarantined: false,
            fault_kind: None,
        }
    }

    fn manifest(id: &str) -> Json {
        Json::obj(vec![
            ("schema", Json::from(1u64)),
            ("id", Json::from(id)),
            ("name", Json::from("t")),
            ("created_unix_ms", Json::from(123u64)),
            ("counts", Json::obj(vec![("items", Json::from(2u64))])),
        ])
    }

    /// Reserves the next run of `id`'s name, which must be `id`, and
    /// finalizes it with `items`.
    fn commit(store: &RunStore, id: &str, items: &[OutcomeRecord]) {
        let (name, _) = id.rsplit_once('-').unwrap();
        assert_eq!(store.begin_run(name).unwrap(), id);
        store.finalize_run(id, &manifest(id), items).unwrap();
    }

    #[test]
    fn model_key_round_trips_and_stays_out_of_default_records() {
        let default = record("sb", 1, 9);
        let rendered = default.to_json().render();
        assert!(
            !rendered.contains("model"),
            "default-model records must stay byte-identical to pre-model stores"
        );
        assert_eq!(
            OutcomeRecord::from_json(&default.to_json()).unwrap(),
            default
        );

        let mut weak = record("lb", 2, 3);
        weak.model = Some("relaxed".to_owned());
        let rendered = weak.to_json().render();
        assert!(rendered.contains("\"model\":\"relaxed\""), "{rendered}");
        assert_eq!(OutcomeRecord::from_json(&weak.to_json()).unwrap(), weak);
    }

    #[test]
    fn write_then_load_round_trips() {
        let (dir, store) = tmp_store("roundtrip");
        let items = vec![record("sb", 1, 9), record("mp", 2, 0)];
        commit(&store, "t-0001", &items);
        assert_eq!(store.load_items("t-0001").unwrap(), items);
        let m = store.load_manifest("t-0001").unwrap();
        assert_eq!(m.get("id").and_then(Json::as_str), Some("t-0001"));
        let index = store.list().unwrap();
        assert_eq!(index.len(), 1);
        assert_eq!(index[0].get("id").and_then(Json::as_str), Some("t-0001"));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn item_files_are_byte_identical_for_equal_outcomes() {
        let (dir, store) = tmp_store("stable");
        let items = vec![record("sb", 1, 9)];
        commit(&store, "a-0001", &items);
        commit(&store, "a-0002", &items);
        let a = fs::read(store.run_dir("a-0001").join("items.json")).unwrap();
        let b = fs::read(store.run_dir("a-0002").join("items.json")).unwrap();
        assert_eq!(
            a, b,
            "deterministic outcomes must serialize byte-identically"
        );
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn run_ids_increment_per_name() {
        let (dir, store) = tmp_store("ids");
        assert_eq!(store.next_run_id("smoke"), "smoke-0001");
        commit(&store, "smoke-0001", &[]);
        assert_eq!(store.next_run_id("smoke"), "smoke-0002");
        assert_eq!(store.next_run_id("other"), "other-0001");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn resolve_handles_exact_prefix_latest_and_misses() {
        let (dir, store) = tmp_store("resolve");
        commit(&store, "aa-0001", &[]);
        commit(&store, "ab-0001", &[]);
        assert_eq!(store.resolve("aa-0001").unwrap(), "aa-0001");
        assert_eq!(store.resolve("ab").unwrap(), "ab-0001");
        assert_eq!(store.resolve("latest").unwrap(), "ab-0001");
        assert!(
            matches!(store.resolve("a"), Err(CampaignError::NotFound(_))),
            "ambiguous"
        );
        assert!(matches!(
            store.resolve("zz"),
            Err(CampaignError::NotFound(_))
        ));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn quarantined_records_round_trip_their_fault_kind() {
        let mut r = record("sb", 1, 0);
        r.quarantined = true;
        r.fault_kind = Some("panic".to_owned());
        let back = OutcomeRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn corrupt_records_are_rejected_with_the_missing_field() {
        let err =
            OutcomeRecord::from_json(&Json::obj(vec![("test", Json::from("sb"))])).unwrap_err();
        assert!(err.to_string().contains("seed"), "{err}");
    }

    #[test]
    fn git_describe_never_panics() {
        let d = git_describe();
        assert!(!d.is_empty());
        assert_eq!(git_describe(), d, "memoised: one answer per process");
    }

    #[test]
    fn begin_run_reserves_ids_atomically() {
        let (dir, store) = tmp_store("reserve");
        let a = store.begin_run("x").unwrap();
        let b = store.begin_run("x").unwrap();
        assert_eq!(a, "x-0001");
        assert_eq!(b, "x-0002", "reserved dir blocks id reuse");
        assert!(store.run_dir(&a).exists());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn concurrent_begin_runs_never_collide() {
        let (dir, store) = tmp_store("race");
        let ids: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let store = store.clone();
                    s.spawn(move || store.begin_run("race").unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut unique = ids.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "duplicate ids handed out: {ids:?}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn pending_marker_tracks_resumability() {
        let (dir, store) = tmp_store("pending");
        let id = store.begin_run("p").unwrap();
        assert!(store.pending_runs().is_empty(), "no marker yet");
        store
            .write_pending(&id, &Json::obj(vec![("spec", Json::from("tests = sb\n"))]))
            .unwrap();
        assert_eq!(store.pending_runs(), vec![id.clone()]);
        let pending = store.load_pending(&id).unwrap();
        assert_eq!(
            pending.get("spec").and_then(Json::as_str),
            Some("tests = sb\n")
        );
        store.finalize_run(&id, &manifest(&id), &[]).unwrap();
        assert!(
            store.pending_runs().is_empty(),
            "finalize clears the marker"
        );
        assert!(!store.pending_path(&id).exists());
        assert!(matches!(
            store.load_pending(&id),
            Err(CampaignError::NotFound(_))
        ));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_index_line_is_tolerated_and_repaired_by_the_next_append() {
        let (dir, store) = tmp_store("tornidx");
        commit(&store, "t-0001", &[]);
        // Tear the index: a half-written second line with no newline.
        let path = store.index_path();
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"id\":\"t-00");
        fs::write(&path, &bytes).unwrap();
        // Listing survives, serving the valid prefix.
        let listed = store.list().unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].get("id").and_then(Json::as_str), Some("t-0001"));
        assert_eq!(store.resolve("latest").unwrap(), "t-0001");
        // A clean append amputates the torn tail and restores framing.
        commit(&store, "t-0002", &[]);
        let text = fs::read_to_string(&path).unwrap();
        assert!(
            !text.contains("t-00\""),
            "torn fragment amputated: {text:?}"
        );
        let ids: Vec<_> = store
            .list()
            .unwrap()
            .iter()
            .filter_map(|l| l.get("id").and_then(Json::as_str).map(str::to_owned))
            .collect();
        assert_eq!(ids, ["t-0001", "t-0002"]);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn mid_file_index_corruption_is_still_an_error() {
        let (dir, store) = tmp_store("mididx");
        commit(&store, "m-0001", &[]);
        commit(&store, "m-0002", &[]);
        let path = store.index_path();
        let text = fs::read_to_string(&path).unwrap();
        let corrupted = text.replacen("{\"id\":\"m-0001\"", "{garbage", 1);
        fs::write(&path, corrupted).unwrap();
        assert!(matches!(store.list(), Err(CampaignError::Corrupt(_))));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn resolve_reports_missing_and_ambiguous_references_distinctly() {
        let (dir, store) = tmp_store("resolve2");
        assert!(
            matches!(store.resolve("latest"), Err(CampaignError::NotFound(_))),
            "empty store has no latest"
        );
        commit(&store, "q-0001", &[]);
        commit(&store, "q-0002", &[]);
        let ambiguous = store.resolve("q-").unwrap_err();
        assert!(ambiguous.to_string().contains("ambiguous"), "{ambiguous}");
        assert!(ambiguous.to_string().contains("2 matches"), "{ambiguous}");
        let missing = store.resolve("zz").unwrap_err();
        assert!(missing.to_string().contains("no run matches"), "{missing}");
        let _ = fs::remove_dir_all(dir);
    }
}
