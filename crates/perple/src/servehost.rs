//! Host glue for `perple serve`: implements [`perple_serve::SpecRunner`]
//! on top of this crate's campaign pipeline, so the server's worker pool
//! drives real conversions, simulations, and counters through the shared
//! content-addressed cache and journaled run store.
//!
//! Record lines handed to the server are exactly
//! `OutcomeRecord::to_json().render()` — the same byte-stable encoding
//! `items.json` stores — so a streamed job and the equivalent batch
//! `perple campaign run` produce identical record bytes. Summaries are
//! rendered here too, in a fixed key order the server's metrics
//! aggregator parses.

use std::path::Path;

use perple_analysis::jsonout::Json;
use perple_campaign::{CampaignSpec, RunStore, RunSummary, StoreIo};
use perple_model::ModelId;
use perple_serve::SpecRunner;

use crate::error::PerpleError;
use crate::experiments::campaign::{resume_spec, run_spec_observed};

/// Renders a run summary in the fixed key order the serve layer (and
/// the CLI's JSON mode) rely on. Byte-stable: integers only, insertion
/// order.
pub fn summary_json(s: &RunSummary) -> Json {
    Json::obj(vec![
        ("run", Json::from(s.id.as_str())),
        ("items", Json::from(s.items)),
        ("hits", Json::from(s.hits)),
        ("executed", Json::from(s.executed)),
        ("lost", Json::from(s.lost)),
        ("quarantined", Json::from(s.quarantined)),
        ("violations", Json::from(s.violations)),
        ("recovered", Json::from(s.recovered)),
    ])
}

/// Validates a store root before handing it to the campaign layer: a
/// path that exists but is not a directory, or a directory we cannot
/// read, is a configuration mistake — [`PerpleError::Config`], not a
/// storage failure.
///
/// A missing path is fine (the store creates it on first write).
///
/// # Errors
/// [`PerpleError::Config`] as described.
pub fn validate_store_root(root: &Path) -> Result<(), PerpleError> {
    if !root.exists() {
        return Ok(());
    }
    if !root.is_dir() {
        return Err(PerpleError::Config(format!(
            "store root {} exists but is not a directory",
            root.display()
        )));
    }
    std::fs::read_dir(root).map_err(|e| {
        PerpleError::Config(format!("store root {} is unreadable: {e}", root.display()))
    })?;
    Ok(())
}

/// The production [`SpecRunner`]: campaign specs run on the resilient
/// suite pool with the lint gate in front (submissions carrying
/// error-severity lints are rejected like `campaign run` without
/// `--allow-lints` — a server must not be talked into work the CLI would
/// refuse).
#[derive(Debug, Clone, Copy, Default)]
pub struct CampaignRunner {
    /// Memory model applied to submitted specs that carry no `model =`
    /// key of their own (`perple serve --model`). `None` leaves the
    /// pipeline default (TSO) in charge; a spec's explicit key always
    /// wins. The rewritten spec is what gets persisted, so resumes see
    /// the same model the run started under even if the server restarts
    /// with a different default.
    pub default_model: Option<ModelId>,
}

impl SpecRunner for CampaignRunner {
    fn run(
        &self,
        spec_text: &str,
        store_root: &Path,
        on_record: &mut dyn FnMut(usize, Option<String>),
    ) -> Result<String, String> {
        validate_store_root(store_root).map_err(|e| e.to_string())?;
        let mut spec = CampaignSpec::parse(spec_text).map_err(|e| e.to_string())?;
        if spec.model.is_none() {
            if let Some(model) = self.default_model {
                spec.model = Some(model.name().to_owned());
            }
        }
        let summary = run_spec_observed(
            &spec,
            store_root,
            false,
            StoreIo::unplanned(),
            |slot, record| on_record(slot, record.map(|r| r.to_json().render())),
        )?;
        Ok(summary_json(&summary).render())
    }

    fn resume(
        &self,
        store_root: &Path,
        id: &str,
        on_record: &mut dyn FnMut(usize, Option<String>),
    ) -> Result<String, String> {
        validate_store_root(store_root).map_err(|e| e.to_string())?;
        let (_, summary) = resume_spec(store_root, id, StoreIo::unplanned(), |slot, record| {
            on_record(slot, record.map(|r| r.to_json().render()))
        })?;
        Ok(summary_json(&summary).render())
    }

    fn pending(&self, store_root: &Path) -> Result<Vec<String>, String> {
        validate_store_root(store_root).map_err(|e| e.to_string())?;
        if !store_root.exists() {
            return Ok(Vec::new());
        }
        let store = RunStore::open(store_root).map_err(|e| e.to_string())?;
        // A crashed predecessor leaves more than pending markers: stray
        // cache temp files, torn journal tails, damaged index lines. A
        // repairing fsck first means the server boots from — and later
        // drains to — a store `campaign fsck` calls clean.
        let cache = perple_campaign::ArtifactCache::open(store_root).map_err(|e| e.to_string())?;
        perple_campaign::fsck(&store, &cache, true).map_err(|e| e.to_string())?;
        Ok(store.pending_runs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("perple-servehost-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_root_validation_classifies_config_mistakes() {
        let dir = tmp("validate");
        // Missing is fine (created on first write).
        assert!(validate_store_root(&dir).is_ok());
        // A file where the directory should be is a Config error.
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("not-a-dir");
        fs::write(&file, "x").unwrap();
        let err = validate_store_root(&file).unwrap_err();
        assert!(matches!(err, PerpleError::Config(_)), "{err}");
        assert!(err.to_string().contains("not a directory"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn runner_streams_records_matching_the_stored_run() {
        let dir = tmp("stream");
        let spec = "name = hosted\ntests = sb, mp\nseeds = 1, 2\niterations = 150\nworkers = 2\n";
        let mut lines = Vec::new();
        let runner = CampaignRunner::default();
        let summary = runner
            .run(spec, &dir, &mut |slot, rec| lines.push((slot, rec)))
            .unwrap();
        // Every slot observed exactly once, every record present.
        let mut slots: Vec<usize> = lines.iter().map(|(s, _)| *s).collect();
        slots.sort_unstable();
        assert_eq!(slots, vec![0, 1, 2, 3]);
        assert!(lines.iter().all(|(_, r)| r.is_some()));
        // Summary parses and reports a cold run.
        let v = perple_analysis::jsonout::parse(&summary).unwrap();
        assert_eq!(v.get("items").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("hits").and_then(Json::as_u64), Some(0));
        assert_eq!(v.get("executed").and_then(Json::as_u64), Some(4));
        // Streamed record bytes equal the stored items.json records.
        let id = v.get("run").and_then(Json::as_str).unwrap();
        let store = RunStore::open(&dir).unwrap();
        let stored: Vec<String> = store
            .load_items(id)
            .unwrap()
            .iter()
            .map(|r| r.to_json().render())
            .collect();
        let mut streamed: Vec<(usize, String)> =
            lines.into_iter().map(|(s, r)| (s, r.unwrap())).collect();
        streamed.sort_by_key(|(s, _)| *s);
        let streamed: Vec<String> = streamed.into_iter().map(|(_, r)| r).collect();
        assert_eq!(streamed, stored);
        // A second submission of the same spec is pure cache hits.
        let again = runner.run(spec, &dir, &mut |_, _| {}).unwrap();
        let v = perple_analysis::jsonout::parse(&again).unwrap();
        assert_eq!(v.get("hits").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("executed").and_then(Json::as_u64), Some(0));
        assert!(runner.pending(&dir).unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_model_rewrites_only_model_free_specs() {
        let dir = tmp("defmodel");
        let runner = CampaignRunner {
            default_model: Some(ModelId::Relaxed),
        };
        // A model-free lb spec inherits the server default: the relaxed
        // machine fires the (TSO-forbidden, relaxed-allowed) target.
        let summary = runner
            .run(
                "name = hostdef\ntests = lb\nseeds = 1\niterations = 2000\n",
                &dir,
                &mut |_, _| {},
            )
            .unwrap();
        let v = perple_analysis::jsonout::parse(&summary).unwrap();
        let id = v.get("run").and_then(Json::as_str).unwrap();
        let store = RunStore::open(&dir).unwrap();
        let items = store.load_items(id).unwrap();
        assert!(!items[0].forbidden, "lb is allowed under relaxed");
        assert!(items[0].heuristic > 0, "relaxed machine fires lb");
        // An explicit key beats the server default: under TSO, lb's only
        // target is statically unexposable, so the futility gate refuses
        // the spec — and its message names TSO, proving the explicit key
        // won over the server's relaxed default. (The server never passes
        // --allow-lints; futile specs are refused, not run.)
        let err = runner
            .run(
                "name = hostexp\ntests = lb\nseeds = 1\niterations = 2000\nmodel = tso\n",
                &dir,
                &mut |_, _| {},
            )
            .unwrap_err();
        assert!(
            err.contains("unexposable under TSO"),
            "explicit tso must win over the relaxed default: {err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn runner_rejects_bad_specs_and_bad_roots() {
        let dir = tmp("reject");
        let runner = CampaignRunner::default();
        assert!(runner
            .run("tests = no-such-test\n", &dir, &mut |_, _| {})
            .is_err());
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("plain-file");
        fs::write(&file, "x").unwrap();
        let err = runner
            .run("tests = sb\n", &file, &mut |_, _| {})
            .unwrap_err();
        assert!(err.contains("not a directory"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
