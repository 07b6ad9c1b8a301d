//! Store consistency checking and repair — `perple campaign fsck`.
//!
//! Walks every durable artifact of a campaign store — the `runs.jsonl`
//! index, each run directory (manifest, items, pending marker, journal,
//! stray temp files), and the content-addressed cache — verifying
//! checksums and cross-references, and classifying every defect under the
//! [`StorageKind`] taxonomy:
//!
//! | damage                                | kind                | repair |
//! |---------------------------------------|---------------------|--------|
//! | stray `.tmp` from a died atomic write | `TornWrite`         | remove |
//! | torn trailing journal frame           | `TornWrite`         | truncate to the valid prefix |
//! | torn / unparseable index line         | `TornWrite` / `ChecksumMismatch` | rebuild index from manifests |
//! | finalize died between manifest and marker removal | `TornWrite` | remove marker, rebuild index |
//! | mid-journal checksum failure          | `ChecksumMismatch`  | — (refused; not a torn append) |
//! | unparseable manifest / items file     | `ChecksumMismatch`  | — (source of truth is gone) |
//! | run dir with neither manifest nor marker | `OrphanRun`      | remove the reservation |
//! | manifest missing from index, or index entry with no run | `StaleIndex` | rebuild index from manifests |
//! | cache entry failing the content-address contract | `ChecksumMismatch` | quarantine |
//!
//! Repairs are **conservative**: anything that can be rebuilt from a
//! surviving source of truth (the index, from manifests) or safely
//! amputated (torn tails, stray temps, empty reservations) is; anything
//! whose source of truth is itself damaged is reported and left alone.
//! A run with a pending marker and no manifest is not damage — it is an
//! interrupted run, reported as *resumable*.

use std::fs;
use std::path::PathBuf;

use perple_analysis::jsonout::Json;

use crate::cache::ArtifactCache;
use crate::journal::Journal;
use crate::store::RunStore;
use crate::{CampaignError, StorageKind};

/// One defect (or repaired defect) found by [`fsck`].
#[derive(Debug, Clone)]
pub struct Finding {
    /// Damage classification.
    pub kind: StorageKind,
    /// The damaged path.
    pub path: PathBuf,
    /// Human-readable description of the damage.
    pub detail: String,
    /// True iff fsck knows a safe repair for this defect.
    pub repairable: bool,
    /// True iff the repair was applied (always false without `--repair`).
    pub repaired: bool,
}

/// What a full [`fsck`] pass found (and possibly fixed).
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Every defect, discovery order.
    pub findings: Vec<Finding>,
    /// Run directories examined.
    pub runs_checked: usize,
    /// Cache entry files examined.
    pub cache_entries_checked: usize,
    /// Interrupted-but-intact runs that `campaign resume` can finish.
    pub resumable: Vec<String>,
    /// Findings whose repair was applied.
    pub repaired: usize,
}

impl FsckReport {
    /// True iff the store has no defects at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// True iff the store is clean **or** every defect was repaired —
    /// the exit-0 condition of `campaign fsck`.
    pub fn is_healthy(&self) -> bool {
        self.findings.iter().all(|f| f.repaired)
    }

    /// Human-readable report for the CLI.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for f in &self.findings {
            s.push_str(&format!(
                "{} {}: {} [{}]\n",
                if f.repaired {
                    "repaired"
                } else if f.repairable {
                    "repairable"
                } else {
                    "damaged"
                },
                f.kind,
                f.detail,
                f.path.display(),
            ));
        }
        for id in &self.resumable {
            s.push_str(&format!(
                "resumable {id}: interrupted run (finish with `campaign resume {id}`)\n"
            ));
        }
        s.push_str(&format!(
            "checked {} run(s), {} cache entr(ies): {}\n",
            self.runs_checked,
            self.cache_entries_checked,
            if self.is_clean() {
                "clean".to_owned()
            } else {
                format!(
                    "{} finding(s), {} repaired",
                    self.findings.len(),
                    self.repaired
                )
            }
        ));
        s
    }

    /// The report as JSON (for `campaign fsck --json`).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "findings",
                Json::Arr(
                    self.findings
                        .iter()
                        .map(|f| {
                            Json::obj(vec![
                                ("kind", Json::from(f.kind.name())),
                                ("path", Json::from(f.path.display().to_string())),
                                ("detail", Json::from(f.detail.as_str())),
                                ("repairable", Json::from(f.repairable)),
                                ("repaired", Json::from(f.repaired)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "resumable",
                Json::Arr(
                    self.resumable
                        .iter()
                        .map(|id| Json::from(id.as_str()))
                        .collect(),
                ),
            ),
            ("runs_checked", Json::from(self.runs_checked)),
            (
                "cache_entries_checked",
                Json::from(self.cache_entries_checked),
            ),
            ("repaired", Json::from(self.repaired)),
            ("healthy", Json::from(self.is_healthy())),
        ])
    }
}

/// Context threaded through the per-area check passes.
struct Fsck<'a> {
    store: &'a RunStore,
    cache: &'a ArtifactCache,
    repair: bool,
    report: FsckReport,
    /// Set when any index-level damage is found; with `repair` the whole
    /// index is rebuilt once from surviving manifests at the end.
    rebuild_index: bool,
}

/// Checks (and with `repair`, fixes) a whole campaign store.
///
/// # Errors
/// [`CampaignError`] only for repair IO failures — damage itself is
/// reported in the [`FsckReport`], never as an error.
pub fn fsck(
    store: &RunStore,
    cache: &ArtifactCache,
    repair: bool,
) -> Result<FsckReport, CampaignError> {
    let mut ctx = Fsck {
        store,
        cache,
        repair,
        report: FsckReport::default(),
        rebuild_index: false,
    };
    let index_ids = ctx.check_index();
    ctx.check_runs(&index_ids)?;
    ctx.check_cache()?;
    if ctx.rebuild_index && repair {
        ctx.rebuild_index()?;
    }
    Ok(ctx.report)
}

impl Fsck<'_> {
    fn finding(&mut self, kind: StorageKind, path: PathBuf, detail: String, repairable: bool) {
        self.report.findings.push(Finding {
            kind,
            path,
            detail,
            repairable,
            repaired: false,
        });
    }

    /// Marks the most recent finding repaired.
    fn repaired(&mut self) {
        if let Some(last) = self.report.findings.last_mut() {
            last.repaired = true;
            self.report.repaired += 1;
        }
    }

    /// Index pass: framing and parseability of `runs.jsonl`. Returns the
    /// ids the index claims (cross-checked against run dirs later).
    fn check_index(&mut self) -> Vec<String> {
        let path = self.store.index_path();
        let Ok(bytes) = fs::read(&path) else {
            return Vec::new();
        };
        if !bytes.is_empty() && bytes.last() != Some(&b'\n') {
            self.finding(
                StorageKind::TornWrite,
                path.clone(),
                "final index line has no newline (an append died mid-write)".to_owned(),
                true,
            );
            self.rebuild_index = true;
        }
        let text = String::from_utf8_lossy(&bytes);
        let lines: Vec<&str> = text
            .split('\n')
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect();
        let mut ids = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            match perple_analysis::jsonout::parse(line) {
                Ok(v) => {
                    if let Some(id) = v.get("id").and_then(Json::as_str) {
                        ids.push(id.to_owned());
                    }
                }
                Err(e) => {
                    let last = i + 1 == lines.len();
                    self.finding(
                        if last {
                            StorageKind::TornWrite
                        } else {
                            StorageKind::ChecksumMismatch
                        },
                        path.clone(),
                        format!(
                            "index line {} does not parse ({e}){}",
                            i + 1,
                            if last {
                                " — torn trailing append"
                            } else {
                                ""
                            }
                        ),
                        true,
                    );
                    self.rebuild_index = true;
                }
            }
        }
        ids
    }

    /// Per-run pass: stray temps, journal integrity, manifest/items
    /// parseability, lifecycle state, index membership.
    fn check_runs(&mut self, index_ids: &[String]) -> Result<(), CampaignError> {
        let mut run_ids = Vec::new();
        if let Ok(entries) = fs::read_dir(self.store.root().join("runs")) {
            run_ids = entries
                .flatten()
                .filter(|e| e.path().is_dir())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect();
            run_ids.sort();
        }
        self.report.runs_checked = run_ids.len();

        for id in &run_ids {
            let dir = self.store.run_dir(id);

            // Stray temp files: an atomic write whose rename never ran.
            let mut temps: Vec<PathBuf> = fs::read_dir(&dir)
                .map(|entries| {
                    entries
                        .flatten()
                        .map(|e| e.path())
                        .filter(|p| p.extension().is_some_and(|x| x == "tmp"))
                        .collect()
                })
                .unwrap_or_default();
            temps.sort();
            for tmp in temps {
                self.finding(
                    StorageKind::TornWrite,
                    tmp.clone(),
                    "stray temp file from an interrupted atomic write".to_owned(),
                    true,
                );
                if self.repair {
                    self.store.io().remove_file(&tmp)?;
                    self.repaired();
                }
            }

            // Journal integrity.
            let journal_path = self.store.journal_path(id);
            if journal_path.exists() {
                match Journal::replay(&journal_path) {
                    Ok(replay) if replay.torn_tail => {
                        self.finding(
                            StorageKind::TornWrite,
                            journal_path.clone(),
                            format!(
                                "torn trailing journal frame ({} valid records survive)",
                                replay.records.len()
                            ),
                            true,
                        );
                        if self.repair {
                            self.store.io().truncate(&journal_path, replay.valid_len)?;
                            self.repaired();
                        }
                    }
                    Ok(_) => {}
                    Err(e) => self.finding(
                        StorageKind::ChecksumMismatch,
                        journal_path.clone(),
                        format!("journal replay refused: {e}"),
                        false,
                    ),
                }
            }

            // Lifecycle: manifest × pending marker.
            let has_manifest = dir.join("manifest.json").exists();
            let has_pending = self.store.pending_path(id).exists();
            match (has_manifest, has_pending) {
                (true, true) => {
                    // Finalize died between the manifest landing and the
                    // marker removal; the run is complete.
                    self.finding(
                        StorageKind::TornWrite,
                        self.store.pending_path(id),
                        "pending marker outlived the manifest (finalize was interrupted)"
                            .to_owned(),
                        true,
                    );
                    self.rebuild_index = true; // the index append may also have been lost
                    if self.repair {
                        self.store.io().remove_file(&self.store.pending_path(id))?;
                        self.repaired();
                    }
                }
                (false, true) => self.report.resumable.push(id.clone()),
                (false, false) => {
                    // A reservation that never got its pending marker holds
                    // no durable work (the journal is only created after
                    // the marker lands) — safe to release.
                    self.finding(
                        StorageKind::OrphanRun,
                        dir.clone(),
                        "run directory has neither manifest nor pending marker".to_owned(),
                        true,
                    );
                    if self.repair {
                        fs::remove_dir_all(&dir).map_err(|e| CampaignError::io(&dir, e))?;
                        self.repaired();
                        continue; // nothing left to cross-check
                    }
                }
                (true, false) => {}
            }

            // Completed-run files must parse; their content has no
            // redundant copy, so damage is report-only.
            if has_manifest {
                if let Err(e) = self.store.load_manifest(id) {
                    self.finding(
                        StorageKind::ChecksumMismatch,
                        dir.join("manifest.json"),
                        format!("manifest does not parse: {e}"),
                        false,
                    );
                }
                if let Err(e) = self.store.load_items(id) {
                    self.finding(
                        StorageKind::ChecksumMismatch,
                        dir.join("items.json"),
                        format!("items file does not parse: {e}"),
                        false,
                    );
                }
                if !index_ids.iter().any(|i| i == id) {
                    self.finding(
                        StorageKind::StaleIndex,
                        self.store.index_path(),
                        format!("completed run {id:?} is missing from the index"),
                        true,
                    );
                    self.rebuild_index = true;
                }
            }
        }

        // Index entries pointing at nothing.
        for id in index_ids {
            if !self.store.run_dir(id).join("manifest.json").exists() {
                self.finding(
                    StorageKind::StaleIndex,
                    self.store.index_path(),
                    format!("index lists run {id:?} but no such completed run exists"),
                    true,
                );
                self.rebuild_index = true;
            }
        }
        Ok(())
    }

    /// Cache pass: every entry must honour the content-address contract.
    fn check_cache(&mut self) -> Result<(), CampaignError> {
        for namespace in ["result", "conv"] {
            for path in self.cache.entry_paths(namespace) {
                self.report.cache_entries_checked += 1;
                if path.extension().is_some_and(|x| x == "tmp") {
                    self.finding(
                        StorageKind::TornWrite,
                        path.clone(),
                        "stray temp file from an interrupted cache write".to_owned(),
                        true,
                    );
                    if self.repair {
                        self.store.io().remove_file(&path)?;
                        self.repaired();
                    }
                    continue;
                }
                if let Some(reason) = ArtifactCache::verify_entry(&path) {
                    self.finding(
                        StorageKind::ChecksumMismatch,
                        path.clone(),
                        format!("cache entry fails verification: {reason}"),
                        true,
                    );
                    if self.repair {
                        self.cache.quarantine(&path)?;
                        self.repaired();
                    }
                }
            }
        }
        Ok(())
    }

    /// Rebuilds `runs.jsonl` from scratch out of every surviving valid
    /// manifest, ordered by `(created_unix_ms, id)` — and marks every
    /// index-level finding repaired.
    fn rebuild_index(&mut self) -> Result<(), CampaignError> {
        let mut manifests: Vec<(u64, String, Json)> = Vec::new();
        if let Ok(entries) = fs::read_dir(self.store.root().join("runs")) {
            for entry in entries.flatten() {
                let id = entry.file_name().to_string_lossy().into_owned();
                if let Ok(manifest) = self.store.load_manifest(&id) {
                    let created = manifest
                        .get("created_unix_ms")
                        .and_then(Json::as_u64)
                        .unwrap_or(0);
                    manifests.push((created, id, manifest));
                }
            }
        }
        manifests.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        let mut text = String::new();
        for (_, _, manifest) in &manifests {
            text.push_str(&RunStore::index_line(manifest).render());
            text.push('\n');
        }
        self.store
            .io()
            .write_atomic(&self.store.index_path(), &text)?;
        for finding in &mut self.report.findings {
            if !finding.repaired
                && finding.repairable
                && matches!(
                    finding.kind,
                    StorageKind::StaleIndex
                        | StorageKind::TornWrite
                        | StorageKind::ChecksumMismatch
                )
                && finding.path == self.store.index_path()
            {
                finding.repaired = true;
                self.report.repaired += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::OutcomeRecord;
    use std::path::Path;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("perple-campaign-fsck-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn open(root: &Path) -> (RunStore, ArtifactCache) {
        (
            RunStore::open(root).unwrap(),
            ArtifactCache::open(root).unwrap(),
        )
    }

    fn manifest(id: &str, created: u64) -> Json {
        Json::obj(vec![
            ("schema", Json::from(1u64)),
            ("id", Json::from(id)),
            ("name", Json::from("f")),
            ("created_unix_ms", Json::from(created)),
            ("counts", Json::obj(vec![("items", Json::from(0u64))])),
        ])
    }

    /// Reserves the next `f` run, which must be `id`, and finalizes it.
    fn commit(store: &RunStore, id: &str, created: u64, items: &[OutcomeRecord]) {
        assert_eq!(store.begin_run("f").unwrap(), id);
        store
            .finalize_run(id, &manifest(id, created), items)
            .unwrap();
    }

    fn record(seed: u64) -> OutcomeRecord {
        OutcomeRecord {
            test: "sb".to_owned(),
            seed,
            fingerprint: format!("{seed:032x}"),
            forbidden: false,
            model: None,
            heuristic: 1,
            exhaustive: 1,
            degraded: false,
            iterations: 10,
            run_complete: true,
            faults: 0,
            digest: seed,
            quarantined: false,
            fault_kind: None,
        }
    }

    #[test]
    fn a_clean_store_has_no_findings() {
        let root = tmp_root("clean");
        let (store, cache) = open(&root);
        commit(&store, "f-0001", 1, &[record(1)]);
        let report = fsck(&store, &cache, false).unwrap();
        assert!(report.is_clean(), "{:?}", report.findings);
        assert!(report.is_healthy());
        assert_eq!(report.runs_checked, 1);
        assert!(report.resumable.is_empty());
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn interrupted_runs_are_resumable_not_defects() {
        let root = tmp_root("resumable");
        let (store, cache) = open(&root);
        let id = store.begin_run("f").unwrap();
        store
            .write_pending(&id, &Json::obj(vec![("spec", Json::from("x"))]))
            .unwrap();
        let report = fsck(&store, &cache, false).unwrap();
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.resumable, vec![id]);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn torn_index_line_is_found_and_rebuilt() {
        let root = tmp_root("tornindex");
        let (store, cache) = open(&root);
        commit(&store, "f-0001", 1, &[]);
        commit(&store, "f-0002", 2, &[]);
        let path = store.index_path();
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"id\":\"f-00");
        fs::write(&path, &bytes).unwrap();

        let dry = fsck(&store, &cache, false).unwrap();
        assert!(!dry.is_clean());
        assert!(dry
            .findings
            .iter()
            .any(|f| f.kind == StorageKind::TornWrite && !f.repaired));

        let wet = fsck(&store, &cache, true).unwrap();
        assert!(wet.is_healthy(), "{:?}", wet.findings);
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'));
        let ids: Vec<String> = store
            .list()
            .unwrap()
            .iter()
            .filter_map(|l| l.get("id").and_then(Json::as_str).map(str::to_owned))
            .collect();
        assert_eq!(ids, ["f-0001", "f-0002"]);
        assert!(fsck(&store, &cache, false).unwrap().is_clean());
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn missing_index_lines_are_rebuilt_from_manifests() {
        let root = tmp_root("staleindex");
        let (store, cache) = open(&root);
        commit(&store, "f-0001", 1, &[]);
        commit(&store, "f-0002", 2, &[]);
        // Lose the index entirely — every run is now stale-indexed.
        fs::remove_file(store.index_path()).unwrap();
        let report = fsck(&store, &cache, true).unwrap();
        assert!(
            report
                .findings
                .iter()
                .all(|f| f.kind == StorageKind::StaleIndex && f.repaired),
            "{:?}",
            report.findings
        );
        assert_eq!(store.list().unwrap().len(), 2);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn index_entries_without_runs_are_stale() {
        let root = tmp_root("ghost");
        let (store, cache) = open(&root);
        commit(&store, "f-0001", 1, &[]);
        fs::remove_dir_all(store.run_dir("f-0001")).unwrap();
        let report = fsck(&store, &cache, true).unwrap();
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == StorageKind::StaleIndex && f.repaired));
        assert!(store.list().unwrap().is_empty(), "ghost entry dropped");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn orphan_reservations_are_released() {
        let root = tmp_root("orphan");
        let (store, cache) = open(&root);
        let id = store.begin_run("f").unwrap();
        let report = fsck(&store, &cache, false).unwrap();
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == StorageKind::OrphanRun && !f.repaired));
        let wet = fsck(&store, &cache, true).unwrap();
        assert!(wet.is_healthy(), "{:?}", wet.findings);
        assert!(!store.run_dir(&id).exists(), "reservation released");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn interrupted_finalize_is_completed() {
        let root = tmp_root("finalize");
        let (store, cache) = open(&root);
        let id = store.begin_run("f").unwrap();
        store
            .write_pending(&id, &Json::obj(vec![("spec", Json::from("x"))]))
            .unwrap();
        // Simulate a crash after the manifest landed but before the
        // marker was removed and the index appended.
        fs::write(
            store.run_dir(&id).join("manifest.json"),
            manifest(&id, 5).render(),
        )
        .unwrap();
        fs::write(
            store.run_dir(&id).join("items.json"),
            Json::obj(vec![
                ("schema", Json::from(1u64)),
                ("items", Json::Arr(Vec::new())),
            ])
            .render(),
        )
        .unwrap();
        let report = fsck(&store, &cache, true).unwrap();
        assert!(report.is_healthy(), "{:?}", report.findings);
        assert!(!store.pending_path(&id).exists(), "marker removed");
        assert_eq!(store.resolve("latest").unwrap(), id, "index completed");
        assert!(fsck(&store, &cache, false).unwrap().is_clean());
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn torn_journal_tails_are_truncated() {
        let root = tmp_root("tornwal");
        let (store, cache) = open(&root);
        let id = store.begin_run("f").unwrap();
        store
            .write_pending(&id, &Json::obj(vec![("spec", Json::from("x"))]))
            .unwrap();
        let path = store.journal_path(&id);
        {
            use crate::io::StoreIo;
            use crate::journal::{FsyncPolicy, JournalHeader};
            let mut j = Journal::create(
                StoreIo::unplanned(),
                &path,
                FsyncPolicy::Never,
                &JournalHeader {
                    id: id.clone(),
                    name: "f".to_owned(),
                    items: 2,
                },
            )
            .unwrap();
            j.append_record(&record(1)).unwrap();
        }
        // Tear the last frame.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 3]).unwrap();

        let report = fsck(&store, &cache, true).unwrap();
        assert!(report.is_healthy(), "{:?}", report.findings);
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == StorageKind::TornWrite && f.path == path && f.repaired));
        let replay = Journal::replay(&path).unwrap();
        assert!(!replay.torn_tail, "tail amputated");
        assert!(replay.records.is_empty(), "the torn record is gone");
        assert_eq!(report.resumable, vec![id]);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn stray_temps_and_corrupt_cache_entries_are_cleaned() {
        let root = tmp_root("cache");
        let (store, cache) = open(&root);
        commit(&store, "f-0001", 1, &[]);
        // Stray run temp.
        fs::write(store.run_dir("f-0001").join("manifest.tmp"), "{half").unwrap();
        // Corrupt cache entry + stray cache temp.
        let shard = root.join("cas/result/ab");
        fs::create_dir_all(&shard).unwrap();
        let bad = shard.join(format!("ab{}.json", "0".repeat(30)));
        fs::write(&bad, "{truncated").unwrap();
        fs::write(shard.join("deadbeef.tmp"), "{hal").unwrap();

        let report = fsck(&store, &cache, true).unwrap();
        assert!(report.is_healthy(), "{:?}", report.findings);
        assert_eq!(report.cache_entries_checked, 2);
        assert!(!store.run_dir("f-0001").join("manifest.tmp").exists());
        assert!(!bad.exists(), "corrupt entry quarantined");
        assert!(root.join("cas/quarantine").exists());
        assert!(fsck(&store, &cache, false).unwrap().is_clean());
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn mid_journal_corruption_is_reported_not_repaired() {
        let root = tmp_root("midwal");
        let (store, cache) = open(&root);
        let id = store.begin_run("f").unwrap();
        store
            .write_pending(&id, &Json::obj(vec![("spec", Json::from("x"))]))
            .unwrap();
        let path = store.journal_path(&id);
        {
            use crate::io::StoreIo;
            use crate::journal::{FsyncPolicy, JournalHeader};
            let mut j = Journal::create(
                StoreIo::unplanned(),
                &path,
                FsyncPolicy::Never,
                &JournalHeader {
                    id: id.clone(),
                    name: "f".to_owned(),
                    items: 2,
                },
            )
            .unwrap();
            j.append_record(&record(1)).unwrap();
            j.append_record(&record(2)).unwrap();
        }
        // Flip a byte inside the first record frame (valid frames follow).
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let report = fsck(&store, &cache, true).unwrap();
        let finding = report
            .findings
            .iter()
            .find(|f| f.path == path)
            .expect("journal finding");
        assert_eq!(finding.kind, StorageKind::ChecksumMismatch);
        assert!(!finding.repairable);
        assert!(!report.is_healthy());
        let _ = fs::remove_dir_all(root);
    }
}
