//! The incremental campaign engine.
//!
//! [`run_campaign`] takes an expanded item list (tests × seeds with
//! precomputed [`Fingerprint`]s), partitions it into cache **hits** and
//! **misses**, hands the misses to a caller-supplied executor in
//! journal-sized chunks, caches the fresh clean outcomes, and writes the
//! whole run — hits and misses in the original item order — to the
//! [`RunStore`].
//!
//! The executor is a callback (`FnMut(&[CampaignItem]) -> Vec<Option<ExecOutcome>>`)
//! rather than a trait object into the simulator: this crate stays
//! engine-agnostic and the `perple` facade plugs its resilient suite pool
//! in without a dependency cycle. The contract: each returned vector is
//! parallel to its input chunk; `None` marks an item the executor could
//! not produce any record for (those are dropped from the stored run and
//! reported in [`RunSummary::lost`]).
//!
//! ## Durability
//!
//! A run begins by atomically reserving its id ([`RunStore::begin_run`]),
//! writing a `pending.json` marker (everything resume needs), and opening
//! a write-ahead [`Journal`]. Misses execute in chunks of
//! [`DurabilityPolicy::chunk`]; every completed record is journaled before
//! the next chunk starts, so a crash loses at most one chunk of work.
//! [`resume_campaign`] replays the journal (amputating a torn trailing
//! frame), serves journaled items from the replay and unchanged items from
//! the cache, executes only the true remainder, and finalizes — producing
//! `items.json` **bit-identical** to an uninterrupted run. The two entry
//! points differ only in how they open the run; partition, execution and
//! finalization are one body, and a fresh run is a resume whose journal
//! holds nothing.
//!
//! Cache policy: only **clean** outcomes are cached — not quarantined, all
//! attempts on the nominal seed (degraded or fault-bearing runs are still
//! *valid* observations and are stored in the run, but recovered items ran
//! under perturbed retry seeds, so their counts are not a pure function of
//! the fingerprint and must be re-executed next time). A *failed* cache
//! write is graceful degradation, not a campaign abort: the item simply
//! stays uncached (`store_cache_write_drops` counts it) — unless the
//! failure is an injected crash, which kills the run like the real thing.

use std::collections::HashMap;
use std::time::Instant;

use perple_analysis::jsonout::Json;
use perple_obs::metrics::{self, Metric, MetricsSnapshot};

use crate::cache::ArtifactCache;
use crate::fingerprint::Fingerprint;
use crate::journal::{FsyncPolicy, Journal, JournalHeader};
use crate::spec::CampaignSpec;
use crate::store::{OutcomeRecord, RunStore};
use crate::CampaignError;

/// One expanded campaign item: a `(test, seed)` cell with the fingerprint
/// of its complete inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignItem {
    /// Test name (concrete — magic spec entries are expanded upstream).
    pub test: String,
    /// The spec-level seed for this item.
    pub seed: u64,
    /// Fingerprint of the item's complete behavioural inputs.
    pub fingerprint: Fingerprint,
}

/// Wall-clock stage totals for the executed (miss) portion of a run.
/// Lives only in the manifest — item records stay deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageWallMs {
    /// Conversion wall total, milliseconds.
    pub convert_ms: u64,
    /// Simulation (perpetual run) wall total, milliseconds.
    pub run_ms: u64,
    /// Counting wall total, milliseconds.
    pub count_ms: u64,
}

impl StageWallMs {
    fn to_json(self) -> Json {
        Json::obj(vec![
            ("convert_ms", Json::from(self.convert_ms)),
            ("run_ms", Json::from(self.run_ms)),
            ("count_ms", Json::from(self.count_ms)),
        ])
    }

    fn add(&mut self, other: StageWallMs) {
        self.convert_ms += other.convert_ms;
        self.run_ms += other.run_ms;
        self.count_ms += other.count_ms;
    }
}

/// What the executor produced for one miss.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The outcome record (stored in the run; cached iff `cacheable`).
    pub record: OutcomeRecord,
    /// True iff the record is a pure function of the fingerprint (clean
    /// first-attempt result on the nominal seed).
    pub cacheable: bool,
    /// Per-stage wall time this item actually spent (summed into the
    /// manifest; zero for cache hits by construction, since hits never
    /// reach the executor).
    pub wall: StageWallMs,
}

/// Severity totals from a pre-run lint pass over the spec's tests. Defined
/// here (not in the lint crate) so the engine stays analysis-agnostic: the
/// caller runs whatever linter it likes and hands the engine the counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LintSummary {
    /// Error-severity findings.
    pub errors: u64,
    /// Warning-severity findings.
    pub warnings: u64,
    /// Note-severity findings.
    pub notes: u64,
}

/// Everything the caller embeds in the manifest besides the spec. Wall
/// times are measured by the engine itself; these are the bits only the
/// caller knows.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// Unix timestamp of the run start, milliseconds.
    pub created_unix_ms: u64,
    /// `git describe` of the producing tree.
    pub git: String,
    /// Lint totals over the spec's tests, if the caller ran a pre-run lint
    /// pass. `None` omits the manifest's `lint` key entirely.
    pub lint: Option<LintSummary>,
}

impl RunMeta {
    /// The `pending.json` marker document: the spec text plus this
    /// metadata, so `campaign resume` can rebuild the run without the
    /// original invocation.
    fn to_pending_json(&self, id: &str, spec: &CampaignSpec) -> Json {
        let mut fields = vec![
            ("schema", Json::from(1u64)),
            ("id", Json::from(id)),
            ("created_unix_ms", Json::from(self.created_unix_ms)),
            ("git", Json::from(self.git.as_str())),
            ("spec", Json::from(spec.render())),
        ];
        if let Some(lint) = &self.lint {
            fields.push((
                "lint",
                Json::obj(vec![
                    ("errors", Json::from(lint.errors)),
                    ("warnings", Json::from(lint.warnings)),
                    ("notes", Json::from(lint.notes)),
                ]),
            ));
        }
        Json::obj(fields)
    }

    /// Rebuilds the metadata recorded in a `pending.json` marker.
    ///
    /// # Errors
    /// [`CampaignError::Corrupt`] when required fields are missing.
    fn from_pending_json(pending: &Json) -> Result<Self, CampaignError> {
        let need = |field: &'static str| {
            move || CampaignError::Corrupt(format!("pending marker is missing {field:?}"))
        };
        Ok(Self {
            created_unix_ms: pending
                .get("created_unix_ms")
                .and_then(Json::as_u64)
                .ok_or_else(need("created_unix_ms"))?,
            git: pending
                .get("git")
                .and_then(Json::as_str)
                .ok_or_else(need("git"))?
                .to_owned(),
            lint: pending.get("lint").map(|l| LintSummary {
                errors: l.get("errors").and_then(Json::as_u64).unwrap_or(0),
                warnings: l.get("warnings").and_then(Json::as_u64).unwrap_or(0),
                notes: l.get("notes").and_then(Json::as_u64).unwrap_or(0),
            }),
        })
    }
}

/// An interrupted run, rebuilt from its `pending.json` marker: loading
/// one is the resumability check (so the fields stay private), and it
/// carries everything a resume needs but the expanded items.
#[derive(Debug)]
pub struct PendingRun {
    id: String,
    spec: CampaignSpec,
    meta: RunMeta,
}

impl PendingRun {
    /// Loads and parses the marker of run `id`.
    ///
    /// # Errors
    /// [`CampaignError::NotFound`] if the run has no pending marker (it
    /// completed, or never started); [`CampaignError::Corrupt`] if the
    /// marker does not parse or lacks a field; the spec's own parse
    /// error if its spec text no longer parses.
    pub fn load(store: &RunStore, id: &str) -> Result<PendingRun, CampaignError> {
        let marker = store.load_pending(id)?;
        let spec_text = marker.get("spec").and_then(Json::as_str).ok_or_else(|| {
            CampaignError::Corrupt(format!("run {id:?}: pending marker has no spec"))
        })?;
        Ok(PendingRun {
            id: id.to_owned(),
            spec: CampaignSpec::parse(spec_text)?,
            meta: RunMeta::from_pending_json(&marker)?,
        })
    }

    /// The run's frozen spec, as the marker recorded it.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }
}

/// How aggressively a run journals: executor chunk size (items per
/// invocation, the unit of crash data loss) and fsync policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityPolicy {
    /// Items per executor chunk; completed chunks are journaled before
    /// the next starts. 0 behaves as 1.
    pub chunk: usize,
    /// When journal frames reach stable storage.
    pub fsync: FsyncPolicy,
}

impl Default for DurabilityPolicy {
    fn default() -> Self {
        Self {
            chunk: 16,
            fsync: FsyncPolicy::Batch,
        }
    }
}

/// The manifest's `metrics` object: the run's observability snapshot
/// delta (counters plus histogram buckets) over the executed portion.
/// Cache hits never reach the executor, so a fully warm run embeds an
/// all-zero snapshot — which is exactly what it did.
fn metrics_json(delta: &MetricsSnapshot) -> Json {
    Json::obj(vec![
        (
            "counters",
            Json::Obj(
                delta
                    .counters
                    .iter()
                    .map(|&(name, v)| (name.to_owned(), Json::from(v)))
                    .collect(),
            ),
        ),
        (
            "hists",
            Json::Obj(
                delta
                    .hists
                    .iter()
                    .map(|(name, buckets)| {
                        (
                            (*name).to_owned(),
                            Json::Arr(buckets.iter().map(|&b| Json::from(b)).collect()),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// What a campaign run did, for callers and the CLI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// The allocated run id.
    pub id: String,
    /// Total items in the expanded campaign.
    pub items: usize,
    /// Items served from the result cache (no convert/simulate/count).
    pub hits: usize,
    /// Items handed to the executor.
    pub executed: usize,
    /// Executed items for which the executor returned no record.
    pub lost: usize,
    /// Stored records that are quarantined.
    pub quarantined: usize,
    /// Stored records with a forbidden target and a nonzero count
    /// (consistency violations).
    pub violations: usize,
    /// Items replayed from the write-ahead journal (0 except on resume).
    pub recovered: usize,
}

/// Runs one campaign: reserve the id ([`RunStore::begin_run`]), write the
/// pending marker, create the journal, then partition, execute and
/// finalize in the body a resume shares.
///
/// `on_item(slot, record)` is called exactly once per expanded item, as
/// soon as that item's outcome is final — for cache hits during the
/// partition (in slot order), for misses as each journaled chunk
/// completes. `None` marks a lost item (the executor produced no record;
/// nothing will be stored for that slot). This is how `perple serve`
/// streams records while a campaign is still running — every observed
/// record is already durable (journaled or cached) when the callback
/// fires.
///
/// # Errors
/// [`CampaignError`] on store or cache I/O failure or injected crash.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign(
    store: &RunStore,
    cache: &ArtifactCache,
    spec: &CampaignSpec,
    items: &[CampaignItem],
    meta: &RunMeta,
    policy: DurabilityPolicy,
    exec: impl FnMut(&[CampaignItem]) -> Vec<Option<ExecOutcome>>,
    on_item: impl FnMut(usize, Option<&OutcomeRecord>),
) -> Result<RunSummary, CampaignError> {
    let open = || {
        let id = store.begin_run(&spec.name)?;
        store.write_pending(&id, &meta.to_pending_json(&id, spec))?;
        let journal = create_journal(store, &id, spec, items.len(), policy)?;
        Ok((id, journal, HashMap::new()))
    };
    drive(store, cache, spec, items, meta, policy, exec, on_item, open)
}

/// Resumes the interrupted run `pending` (loaded with
/// [`PendingRun::load`], which is what makes it resumable), whose spec
/// expands to `items`: replay the journal (amputating a torn trailing
/// frame), check the header, reopen (or create) the journal, then
/// partition, execute and finalize in the body a fresh run shares.
/// Journaled items are served from the replay, unchanged items from the
/// cache, and only the remainder executes; the resulting `items.json` is
/// bit-identical to an uninterrupted run's. `on_item` observes as for
/// [`run_campaign`].
///
/// # Errors
/// [`CampaignError::Storage`] for journal corruption beyond a torn tail;
/// [`CampaignError::Corrupt`] when the journal header names another run
/// or another item count; other [`CampaignError`]s as for
/// [`run_campaign`].
pub fn resume_campaign(
    store: &RunStore,
    cache: &ArtifactCache,
    pending: &PendingRun,
    items: &[CampaignItem],
    policy: DurabilityPolicy,
    exec: impl FnMut(&[CampaignItem]) -> Vec<Option<ExecOutcome>>,
    on_item: impl FnMut(usize, Option<&OutcomeRecord>),
) -> Result<RunSummary, CampaignError> {
    let PendingRun { id, spec, meta } = pending;
    let id = id.as_str();
    let open = || {
        let journal_path = store.journal_path(id);
        let replay = Journal::replay(&journal_path)?;
        if replay.torn_tail {
            store.io().truncate(&journal_path, replay.valid_len)?;
        }
        let journal = match &replay.header {
            Some(header) if header.id != id => {
                return Err(CampaignError::Corrupt(format!(
                    "journal of run {id:?} claims to belong to {:?}",
                    header.id
                )));
            }
            Some(header) if header.items != items.len() as u64 => {
                return Err(CampaignError::Corrupt(format!(
                    "journal of run {id:?} covers {} items but the spec expands to {} \
                     (spec changed between run and resume?)",
                    header.items,
                    items.len()
                )));
            }
            Some(_) => Journal::open_append(store.io().clone(), &journal_path, policy.fsync)?,
            // Empty or headerless-torn journal: nothing was durably
            // started; begin it properly now.
            None => create_journal(store, id, spec, items.len(), policy)?,
        };
        let journaled = replay
            .records
            .into_iter()
            .map(|r| ((r.test.clone(), r.seed), r))
            .collect();
        Ok((id.to_owned(), journal, journaled))
    };
    drive(store, cache, spec, items, meta, policy, exec, on_item, open)
}

/// Creates run `id`'s journal and durably writes its header frame.
fn create_journal(
    store: &RunStore,
    id: &str,
    spec: &CampaignSpec,
    items: usize,
    policy: DurabilityPolicy,
) -> Result<Journal, CampaignError> {
    let header = JournalHeader {
        id: id.to_owned(),
        name: spec.name.clone(),
        items: items as u64,
    };
    Journal::create(
        store.io().clone(),
        store.journal_path(id),
        policy.fsync,
        &header,
    )
}

/// Records a run's items already hold, keyed by `(test, seed)`: the
/// journal replay on a resume, nothing on a fresh run.
type Journaled = HashMap<(String, u64), OutcomeRecord>;

/// The body a fresh run and a resume share. `open` is the entry point's
/// preamble (id, journal, journaled records); it runs inside the
/// `campaign` span and metrics window, so the manifest counts its writes.
/// Then the three-way partition — journal replay beats cache beats
/// execution — the chunked execution of the misses, and finalization.
#[allow(clippy::too_many_arguments)]
fn drive(
    store: &RunStore,
    cache: &ArtifactCache,
    spec: &CampaignSpec,
    items: &[CampaignItem],
    meta: &RunMeta,
    policy: DurabilityPolicy,
    mut exec: impl FnMut(&[CampaignItem]) -> Vec<Option<ExecOutcome>>,
    mut on_item: impl FnMut(usize, Option<&OutcomeRecord>),
    open: impl FnOnce() -> Result<(String, Journal, Journaled), CampaignError>,
) -> Result<RunSummary, CampaignError> {
    let t0 = Instant::now();
    let _span = perple_obs::trace::span("campaign");
    let metrics_before = perple_obs::metrics::snapshot();
    let (id, mut journal, mut journaled) = open()?;

    // Each item keeps its slot, so the stored run keeps the expansion
    // order whatever the hit pattern.
    let mut records: Vec<Option<OutcomeRecord>> = vec![None; items.len()];
    let mut misses: Vec<(usize, CampaignItem)> = Vec::new();
    let mut recovered = 0usize;
    let mut hits = 0usize;
    for (slot, item) in items.iter().enumerate() {
        if let Some(done) = journaled.remove(&(item.test.clone(), item.seed)) {
            on_item(slot, Some(&done));
            records[slot] = Some(done);
            recovered += 1;
        } else if let Some(hit) = cache.load_result(item.fingerprint) {
            on_item(slot, Some(&hit));
            records[slot] = Some(hit);
            hits += 1;
        } else {
            misses.push((slot, item.clone()));
        }
    }
    metrics::add(Metric::StoreRecoveredItems, recovered as u64);

    let (lost, stage_wall) = execute_chunks(
        cache,
        &mut journal,
        policy,
        &misses,
        &mut records,
        &mut exec,
        &mut on_item,
    )?;
    drop(journal);

    finish(
        store,
        spec,
        &id,
        meta,
        records,
        Totals {
            items: items.len(),
            hits,
            executed: misses.len(),
            lost,
            recovered,
        },
        stage_wall,
        t0,
        &metrics_before,
    )
}

/// Executes the misses in journal-sized chunks: every returned record is
/// journaled (and, if clean, cached) before the next chunk starts.
#[allow(clippy::too_many_arguments)]
fn execute_chunks(
    cache: &ArtifactCache,
    journal: &mut Journal,
    policy: DurabilityPolicy,
    misses: &[(usize, CampaignItem)],
    records: &mut [Option<OutcomeRecord>],
    exec: &mut impl FnMut(&[CampaignItem]) -> Vec<Option<ExecOutcome>>,
    on_item: &mut impl FnMut(usize, Option<&OutcomeRecord>),
) -> Result<(usize, StageWallMs), CampaignError> {
    let mut lost = 0usize;
    let mut stage_wall = StageWallMs::default();
    for chunk in misses.chunks(policy.chunk.max(1)) {
        let batch: Vec<CampaignItem> = chunk.iter().map(|(_, i)| i.clone()).collect();
        let outcomes = exec(&batch);
        assert_eq!(
            outcomes.len(),
            batch.len(),
            "executor must return one slot per input item"
        );
        for ((slot, item), outcome) in chunk.iter().zip(outcomes) {
            match outcome {
                Some(out) => {
                    if out.cacheable {
                        // A failed cache write degrades to uncached
                        // execution — the result is still good; only an
                        // injected crash (simulated process death) may
                        // abort the run here.
                        match cache.store_result(item.fingerprint, &out.record) {
                            Ok(()) => {}
                            Err(e) if e.is_crash() => return Err(e),
                            Err(_) => metrics::add(Metric::StoreCacheWriteDrops, 1),
                        }
                    }
                    journal.append_record(&out.record)?;
                    stage_wall.add(out.wall);
                    on_item(*slot, Some(&out.record));
                    records[*slot] = Some(out.record);
                }
                None => {
                    on_item(*slot, None);
                    lost += 1;
                }
            }
        }
        journal.sync_batch()?;
    }
    Ok((lost, stage_wall))
}

struct Totals {
    items: usize,
    hits: usize,
    executed: usize,
    lost: usize,
    recovered: usize,
}

/// Assembles the manifest and finalizes the run.
#[allow(clippy::too_many_arguments)]
fn finish(
    store: &RunStore,
    spec: &CampaignSpec,
    id: &str,
    meta: &RunMeta,
    records: Vec<Option<OutcomeRecord>>,
    totals: Totals,
    stage_wall: StageWallMs,
    t0: Instant,
    metrics_before: &MetricsSnapshot,
) -> Result<RunSummary, CampaignError> {
    let stored: Vec<OutcomeRecord> = records.into_iter().flatten().collect();
    let quarantined = stored.iter().filter(|r| r.quarantined).count();
    let violations = stored
        .iter()
        .filter(|r| r.forbidden && r.heuristic > 0)
        .count();

    let mut fields = vec![
        ("schema", Json::from(1u64)),
        ("id", Json::from(id)),
        ("name", Json::from(spec.name.as_str())),
        ("created_unix_ms", Json::from(meta.created_unix_ms)),
        ("git", Json::from(meta.git.as_str())),
        ("spec", Json::from(spec.render())),
        (
            "counts",
            Json::obj(vec![
                ("items", Json::from(totals.items)),
                ("hits", Json::from(totals.hits)),
                ("executed", Json::from(totals.executed)),
                ("lost", Json::from(totals.lost)),
                ("quarantined", Json::from(quarantined)),
                ("violations", Json::from(violations)),
                ("recovered", Json::from(totals.recovered)),
            ]),
        ),
    ];
    if let Some(lint) = &meta.lint {
        fields.push((
            "lint",
            Json::obj(vec![
                ("errors", Json::from(lint.errors)),
                ("warnings", Json::from(lint.warnings)),
                ("notes", Json::from(lint.notes)),
            ]),
        ));
    }
    fields.extend([
        ("wall_ms", Json::from(t0.elapsed().as_millis())),
        ("stage_wall_ms", stage_wall.to_json()),
        (
            "metrics",
            metrics_json(&perple_obs::metrics::snapshot().delta_from(metrics_before)),
        ),
    ]);
    let manifest = Json::obj(fields);
    store.finalize_run(id, &manifest, &stored)?;

    Ok(RunSummary {
        id: id.to_owned(),
        items: totals.items,
        hits: totals.hits,
        executed: totals.executed,
        lost: totals.lost,
        quarantined,
        violations,
        recovered: totals.recovered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Hasher;
    use crate::io::{CrashPlan, StoreIo};
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("perple-campaign-eng-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn item(test: &str, seed: u64) -> CampaignItem {
        let mut h = Hasher::new();
        h.field("test", test).field_u64("seed", seed);
        CampaignItem {
            test: test.to_owned(),
            seed,
            fingerprint: h.finish(),
        }
    }

    fn outcome(it: &CampaignItem, heuristic: u64, cacheable: bool) -> ExecOutcome {
        ExecOutcome {
            record: OutcomeRecord {
                test: it.test.clone(),
                seed: it.seed,
                fingerprint: it.fingerprint.hex(),
                forbidden: it.test == "sb",
                model: None,
                heuristic,
                exhaustive: heuristic,
                degraded: false,
                iterations: 100,
                run_complete: true,
                faults: 0,
                digest: heuristic.wrapping_mul(31) ^ it.seed,
                quarantined: false,
                fault_kind: None,
            },
            cacheable,
            wall: StageWallMs {
                convert_ms: 1,
                run_ms: 2,
                count_ms: 3,
            },
        }
    }

    /// A fresh run under the default policy, unobserved.
    fn run(
        store: &RunStore,
        cache: &ArtifactCache,
        spec: &CampaignSpec,
        items: &[CampaignItem],
        meta: &RunMeta,
        exec: impl FnMut(&[CampaignItem]) -> Vec<Option<ExecOutcome>>,
    ) -> Result<RunSummary, CampaignError> {
        let policy = DurabilityPolicy::default();
        run_campaign(store, cache, spec, items, meta, policy, exec, |_, _| {})
    }

    fn meta() -> RunMeta {
        RunMeta {
            created_unix_ms: 1,
            git: "test".to_owned(),
            lint: None,
        }
    }

    #[test]
    fn lint_summary_appears_in_the_manifest_only_when_present() {
        let root = tmp_root("lintmeta");
        let store = RunStore::open(&root).unwrap();
        let cache = ArtifactCache::open(&root).unwrap();
        let spec = CampaignSpec::named("lm");
        let items = vec![item("sb", 1)];
        let bare = run(&store, &cache, &spec, &items, &meta(), |batch| {
            batch.iter().map(|i| Some(outcome(i, 1, true))).collect()
        })
        .unwrap();
        assert!(
            store.load_manifest(&bare.id).unwrap().get("lint").is_none(),
            "no lint pass, no lint key"
        );

        let mut with_lint = meta();
        with_lint.lint = Some(LintSummary {
            errors: 0,
            warnings: 2,
            notes: 5,
        });
        let linted = run(&store, &cache, &spec, &items, &with_lint, |batch| {
            batch.iter().map(|i| Some(outcome(i, 1, true))).collect()
        })
        .unwrap();
        let m = store.load_manifest(&linted.id).unwrap();
        let lint = m.get("lint").expect("lint key present");
        assert_eq!(lint.get("warnings").and_then(Json::as_u64), Some(2));
        assert_eq!(lint.get("notes").and_then(Json::as_u64), Some(5));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn warm_rerun_executes_nothing() {
        let root = tmp_root("warm");
        let store = RunStore::open(&root).unwrap();
        let cache = ArtifactCache::open(&root).unwrap();
        let spec = CampaignSpec::named("warm");
        let items = vec![item("sb", 1), item("mp", 1), item("sb", 2)];
        let calls = AtomicUsize::new(0);

        let cold = run(&store, &cache, &spec, &items, &meta(), |batch| {
            calls.fetch_add(batch.len(), Ordering::SeqCst);
            batch.iter().map(|i| Some(outcome(i, 5, true))).collect()
        })
        .unwrap();
        assert_eq!((cold.hits, cold.executed), (0, 3));
        assert_eq!(calls.load(Ordering::SeqCst), 3);

        let warm = run(&store, &cache, &spec, &items, &meta(), |batch| {
            calls.fetch_add(batch.len(), Ordering::SeqCst);
            batch.iter().map(|i| Some(outcome(i, 5, true))).collect()
        })
        .unwrap();
        assert_eq!(
            (warm.hits, warm.executed),
            (3, 0),
            "warm run must skip all work"
        );
        assert_eq!(
            calls.load(Ordering::SeqCst),
            3,
            "executor not called on warm run"
        );
        assert_eq!(
            store.load_items(&cold.id).unwrap(),
            store.load_items(&warm.id).unwrap(),
            "hit records equal the originals"
        );
        // Zero convert/run/count wall on the warm run: nothing executed.
        let m = store.load_manifest(&warm.id).unwrap();
        let sw = m.get("stage_wall_ms").unwrap();
        for stage in ["convert_ms", "run_ms", "count_ms"] {
            assert_eq!(sw.get(stage).and_then(Json::as_u64), Some(0), "{stage}");
        }
        let cold_sw = store.load_manifest(&cold.id).unwrap();
        assert_eq!(
            cold_sw
                .get("stage_wall_ms")
                .unwrap()
                .get("run_ms")
                .and_then(Json::as_u64),
            Some(6),
            "cold run sums executed stage walls"
        );
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn manifest_embeds_the_metrics_snapshot() {
        let root = tmp_root("metrics");
        let store = RunStore::open(&root).unwrap();
        let cache = ArtifactCache::open(&root).unwrap();
        let spec = CampaignSpec::named("m");
        let items = vec![item("sb", 1)];
        let summary = run(&store, &cache, &spec, &items, &meta(), |batch| {
            batch.iter().map(|i| Some(outcome(i, 5, true))).collect()
        })
        .unwrap();
        let m = store.load_manifest(&summary.id).unwrap();
        let metrics = m.get("metrics").expect("manifest carries metrics");
        let counters = metrics.get("counters").expect("counters object");
        // Every metric of the closed set is present (zero when this test's
        // stub executor skipped the stage, but always queryable).
        for metric in perple_obs::metrics::Metric::ALL {
            assert!(
                counters.get(metric.name()).and_then(Json::as_u64).is_some(),
                "{}",
                metric.name()
            );
        }
        let hists = metrics.get("hists").expect("hists object");
        for hist in perple_obs::metrics::Hist::ALL {
            let buckets = hists.get(hist.name()).and_then(Json::as_arr).unwrap();
            assert_eq!(buckets.len(), perple_obs::metrics::HIST_BUCKETS);
        }
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn uncacheable_outcomes_are_stored_but_rerun() {
        let root = tmp_root("uncache");
        let store = RunStore::open(&root).unwrap();
        let cache = ArtifactCache::open(&root).unwrap();
        let spec = CampaignSpec::named("u");
        let items = vec![item("sb", 1)];
        let first = run(&store, &cache, &spec, &items, &meta(), |batch| {
            batch.iter().map(|i| Some(outcome(i, 2, false))).collect()
        })
        .unwrap();
        assert_eq!(first.hits, 0);
        assert_eq!(
            store.load_items(&first.id).unwrap().len(),
            1,
            "stored in the run"
        );
        let second = run(&store, &cache, &spec, &items, &meta(), |batch| {
            batch.iter().map(|i| Some(outcome(i, 2, true))).collect()
        })
        .unwrap();
        assert_eq!(
            second.executed, 1,
            "uncacheable outcome did not populate the cache"
        );
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn lost_items_are_counted_and_dropped() {
        let root = tmp_root("lost");
        let store = RunStore::open(&root).unwrap();
        let cache = ArtifactCache::open(&root).unwrap();
        let spec = CampaignSpec::named("l");
        let items = vec![item("sb", 1), item("mp", 1)];
        let summary = run(&store, &cache, &spec, &items, &meta(), |batch| {
            batch
                .iter()
                .map(|i| (i.test == "sb").then(|| outcome(i, 1, true)))
                .collect()
        })
        .unwrap();
        assert_eq!(summary.lost, 1);
        let stored = store.load_items(&summary.id).unwrap();
        assert_eq!(stored.len(), 1);
        assert_eq!(stored[0].test, "sb");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn violations_and_quarantines_are_summarised() {
        let root = tmp_root("sum");
        let store = RunStore::open(&root).unwrap();
        let cache = ArtifactCache::open(&root).unwrap();
        let spec = CampaignSpec::named("s");
        let items = vec![item("sb", 1), item("mp", 1)];
        let summary = run(&store, &cache, &spec, &items, &meta(), |batch| {
            batch
                .iter()
                .map(|i| {
                    let mut out = outcome(i, 7, true);
                    if i.test == "mp" {
                        out.record.quarantined = true;
                        out.record.fault_kind = Some("panic".to_owned());
                        out.cacheable = false;
                    }
                    Some(out)
                })
                .collect()
        })
        .unwrap();
        assert_eq!(summary.violations, 1, "forbidden sb with nonzero count");
        assert_eq!(summary.quarantined, 1);
        let manifest = store.load_manifest(&summary.id).unwrap();
        let counts = manifest.get("counts").unwrap();
        assert_eq!(counts.get("violations").and_then(Json::as_u64), Some(1));
        assert_eq!(counts.get("quarantined").and_then(Json::as_u64), Some(1));
        assert_eq!(
            counts.get("recovered").and_then(Json::as_u64),
            Some(0),
            "fresh runs recover nothing"
        );
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn chunked_execution_journals_between_chunks() {
        let root = tmp_root("chunks");
        let store = RunStore::open(&root).unwrap();
        let cache = ArtifactCache::open(&root).unwrap();
        let spec = CampaignSpec::named("ck");
        let items: Vec<CampaignItem> = (1..=5).map(|s| item("sb", s)).collect();
        let batches = std::sync::Mutex::new(Vec::new());
        let policy = DurabilityPolicy {
            chunk: 2,
            fsync: FsyncPolicy::Never,
        };
        let exec = |batch: &[CampaignItem]| {
            batches.lock().unwrap().push(batch.len());
            batch.iter().map(|i| Some(outcome(i, 1, true))).collect()
        };
        let summary = run_campaign(
            &store,
            &cache,
            &spec,
            &items,
            &meta(),
            policy,
            exec,
            |_, _| {},
        )
        .unwrap();
        assert_eq!(summary.executed, 5);
        assert_eq!(*batches.lock().unwrap(), vec![2, 2, 1], "chunked 2+2+1");
        // The journal holds every record behind the finalized run.
        let replay = Journal::replay(&store.journal_path(&summary.id)).unwrap();
        assert_eq!(replay.records.len(), 5);
        assert!(!replay.torn_tail);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn interrupted_run_resumes_bit_identically_without_reexecution() {
        let base = tmp_root("resume");
        // Reference: uninterrupted run in its own store.
        let ref_root = base.join("ref");
        let ref_store = RunStore::open(&ref_root).unwrap();
        let ref_cache = ArtifactCache::open(&ref_root).unwrap();
        // The spec names its items' tests: a resume re-parses it from
        // the pending marker.
        let mut spec = CampaignSpec::named("r");
        spec.tests = vec!["mp".to_owned()];
        spec.seeds = (1..=6).collect();
        let items: Vec<CampaignItem> = (1..=6).map(|s| item("mp", s)).collect();
        let policy = DurabilityPolicy {
            chunk: 2,
            fsync: FsyncPolicy::Batch,
        };
        run_campaign(
            &ref_store,
            &ref_cache,
            &spec,
            &items,
            &meta(),
            policy,
            |b| b.iter().map(|i| Some(outcome(i, i.seed, true))).collect(),
            |_, _| {},
        )
        .unwrap();
        let reference = fs::read(ref_store.run_dir("r-0001").join("items.json")).unwrap();

        // Crashed run: die on the journal append of the 3rd record, then
        // resume with a fresh (new-process) store handle.
        let crash_root = base.join("crash");
        let exec_counts: std::sync::Mutex<HashMap<u64, usize>> =
            std::sync::Mutex::new(HashMap::new());
        let count_exec = |b: &[CampaignItem]| {
            let mut counts = exec_counts.lock().unwrap();
            for i in b {
                *counts.entry(i.seed).or_insert(0) += 1;
            }
            b.iter()
                .map(|i| Some(outcome(i, i.seed, true)))
                .collect::<Vec<_>>()
        };
        // Probe: run uninterrupted with a counting shim to learn the
        // boundary total, then crash a real run mid-way through it.
        let probe_io = StoreIo::unplanned();
        {
            let store = RunStore::open_with(&crash_root, probe_io.clone()).unwrap();
            let cache = ArtifactCache::open_with(&crash_root, probe_io.clone()).unwrap();
            let exec =
                |b: &[CampaignItem]| b.iter().map(|i| Some(outcome(i, i.seed, true))).collect();
            run_campaign(
                &store,
                &cache,
                &spec,
                &items,
                &meta(),
                policy,
                exec,
                |_, _| {},
            )
            .unwrap();
        }
        let total = probe_io.boundaries();
        let _ = fs::remove_dir_all(&crash_root);

        // Crash roughly mid-run.
        let io = StoreIo::new(CrashPlan::abort_at(total / 2));
        let store = RunStore::open_with(&crash_root, io.clone()).unwrap();
        let cache = ArtifactCache::open_with(&crash_root, io.clone()).unwrap();
        let err = run_campaign(
            &store,
            &cache,
            &spec,
            &items,
            &meta(),
            policy,
            count_exec,
            |_, _| {},
        )
        .unwrap_err();
        assert!(err.is_crash(), "{err}");

        // New process: fresh handles, no plan.
        let store = RunStore::open(&crash_root).unwrap();
        let cache = ArtifactCache::open(&crash_root).unwrap();
        let pending = store.pending_runs();
        assert_eq!(pending, vec!["r-0001".to_owned()]);
        let replayed_before = Journal::replay(&store.journal_path("r-0001"))
            .unwrap()
            .records
            .len();
        let pending = PendingRun::load(&store, "r-0001").unwrap();
        let summary = resume_campaign(
            &store,
            &cache,
            &pending,
            &items,
            policy,
            count_exec,
            |_, _| {},
        )
        .unwrap();
        assert_eq!(summary.id, "r-0001");
        assert_eq!(summary.recovered, replayed_before);
        assert_eq!(summary.items, 6);

        // Bit-identity with the uninterrupted reference.
        let recovered_items = fs::read(store.run_dir("r-0001").join("items.json")).unwrap();
        assert_eq!(
            recovered_items, reference,
            "items.json must be bit-identical"
        );

        // Zero re-execution of journaled items: journaled seeds executed
        // exactly once across crash + resume. (Cache hits may also absorb
        // items the crash lost between cache write and journal append.)
        let counts = exec_counts.lock().unwrap();
        for record in Journal::replay(&store.journal_path("r-0001"))
            .unwrap()
            .records
            .iter()
            .take(replayed_before)
        {
            assert_eq!(
                counts.get(&record.seed),
                Some(&1),
                "journaled seed {} re-executed",
                record.seed
            );
        }
        assert!(store.pending_runs().is_empty(), "run finalized");
        let _ = fs::remove_dir_all(base);
    }

    #[test]
    fn observer_sees_every_slot_exactly_once_and_matches_the_stored_run() {
        let root = tmp_root("observe");
        let store = RunStore::open(&root).unwrap();
        let cache = ArtifactCache::open(&root).unwrap();
        let spec = CampaignSpec::named("ob");
        let items: Vec<CampaignItem> = (1..=5).map(|s| item("sb", s)).collect();
        let policy = DurabilityPolicy {
            chunk: 2,
            fsync: FsyncPolicy::Never,
        };

        // Warm seeds 2 and 4 so the cold run mixes hits and misses; the
        // "mp" executor below loses seed 3 entirely.
        for it in [&items[1], &items[3]] {
            cache
                .store_result(it.fingerprint, &outcome(it, 9, true).record)
                .unwrap();
        }
        let mut seen: Vec<(usize, Option<OutcomeRecord>)> = Vec::new();
        let summary = run_campaign(
            &store,
            &cache,
            &spec,
            &items,
            &meta(),
            policy,
            |b| {
                b.iter()
                    .map(|i| (i.seed != 3).then(|| outcome(i, i.seed, true)))
                    .collect()
            },
            |slot, rec| seen.push((slot, rec.cloned())),
        )
        .unwrap();
        assert_eq!((summary.hits, summary.executed, summary.lost), (2, 3, 1));

        // Exactly one observation per slot; hits observed first, in slot
        // order; the observed records equal the stored run plus a None
        // for the lost slot.
        let mut slots: Vec<usize> = seen.iter().map(|(s, _)| *s).collect();
        slots.sort_unstable();
        assert_eq!(slots, vec![0, 1, 2, 3, 4]);
        assert_eq!(
            seen.iter().map(|(s, _)| *s).take(2).collect::<Vec<_>>(),
            vec![1, 3],
            "cache hits stream first, in slot order"
        );
        assert!(seen[..2].iter().all(|(_, r)| r.is_some()));
        let stored = store.load_items(&summary.id).unwrap();
        let mut observed: Vec<OutcomeRecord> = seen.iter().filter_map(|(_, r)| r.clone()).collect();
        observed.sort_by_key(|r| r.seed);
        assert_eq!(observed, stored, "observed records are the stored run");
        let lost_slot = seen.iter().find(|(_, r)| r.is_none()).unwrap().0;
        assert_eq!(
            items[lost_slot].seed, 3,
            "the lost item is observed as None"
        );
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn resume_refuses_completed_and_unknown_runs() {
        let root = tmp_root("nonresume");
        let store = RunStore::open(&root).unwrap();
        let cache = ArtifactCache::open(&root).unwrap();
        let spec = CampaignSpec::named("n");
        let items = vec![item("sb", 1)];
        let done = run(&store, &cache, &spec, &items, &meta(), |b| {
            b.iter().map(|i| Some(outcome(i, 1, true))).collect()
        })
        .unwrap();
        for id in [done.id.as_str(), "n-9999"] {
            let err = PendingRun::load(&store, id).unwrap_err();
            assert!(matches!(err, CampaignError::NotFound(_)), "{id}: {err}");
        }
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn resume_rejects_a_spec_whose_item_count_changed() {
        let root = tmp_root("specchange");
        let io = StoreIo::new(CrashPlan::abort_at(8));
        let store = RunStore::open_with(&root, io.clone()).unwrap();
        let cache = ArtifactCache::open_with(&root, io).unwrap();
        let mut spec = CampaignSpec::named("sc");
        spec.tests = vec!["sb".to_owned()];
        spec.seeds = vec![1, 2];
        let items = vec![item("sb", 1), item("sb", 2)];
        let _ = run(&store, &cache, &spec, &items, &meta(), |b| {
            b.iter()
                .map(|i| Some(outcome(i, 1, true)))
                .collect::<Vec<_>>()
        });
        let store = RunStore::open(&root).unwrap();
        let cache = ArtifactCache::open(&root).unwrap();
        if store.pending_runs().is_empty() {
            // The crash landed before the pending marker; nothing to test.
            let _ = fs::remove_dir_all(root);
            return;
        }
        let grown = vec![item("sb", 1), item("sb", 2), item("sb", 3)];
        let err = resume_campaign(
            &store,
            &cache,
            &PendingRun::load(&store, "sc-0001").unwrap(),
            &grown,
            DurabilityPolicy::default(),
            |b: &[CampaignItem]| b.iter().map(|i| Some(outcome(i, 1, true))).collect(),
            |_, _| {},
        )
        .unwrap_err();
        assert!(err.to_string().contains("spec changed"), "{err}");
        let _ = fs::remove_dir_all(root);
    }
}
