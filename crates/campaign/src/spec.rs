//! Declarative campaign specifications.
//!
//! A campaign is *tests × seeds under one configuration*, written in a
//! TOML-ish line format so specs can live in the repo and in CI:
//!
//! ```text
//! # tiny CI campaign
//! name = smoke
//! tests = sb, mp, lb          # suite names, or "convertible" for all
//! seeds = 1, 2
//! iterations = 400
//! workers = 2                 # 0 = machine default
//! retries = 1
//! timeout_ms = 0              # 0 = no watchdog
//! frame_cap = 1000000         # 0 = unlimited exhaustive scan
//! inject = corrupt@t0:0..100  # optional fault plan (omit for none)
//! counter = rf                # optional exact-counter backend
//! model = tso                 # optional memory model (sc, tso, pso, relaxed)
//! journal_chunk = 16          # items per write-ahead journal chunk
//! fsync = batch               # journal sync policy: always, batch, never
//! ```
//!
//! `key = value` lines, `#` comments, unknown keys rejected. [`CampaignSpec::render`]
//! emits a canonical form whose re-parse is identical (round-trip
//! identity), which is also what the run manifest embeds.

use crate::CampaignError;

/// A parsed campaign specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Campaign name (run ids are `<name>-<NNNN>`).
    pub name: String,
    /// Test names, or the magic entry `convertible` (the whole Table II
    /// convertible suite).
    pub tests: Vec<String>,
    /// Per-item seeds; the campaign expands to `tests × seeds`.
    pub seeds: Vec<u64>,
    /// Iterations per item run.
    pub iterations: u64,
    /// Suite-pool workers (0 = machine default).
    pub workers: usize,
    /// Retries for failed items (resilient executor).
    pub retries: u32,
    /// Per-stage watchdog in milliseconds (`None` = unbudgeted).
    pub timeout_ms: Option<u64>,
    /// Exhaustive-counter frame cap (`None` = scan everything).
    pub frame_cap: Option<u64>,
    /// Machine fault-injection plan in its CLI grammar (validated by the
    /// execution layer, which owns the parser).
    pub inject: Option<String>,
    /// Exact-counter backend (`exhaustive`, `heuristic`, or `rf`); `None`
    /// leaves the execution layer's default (`rf`) in charge.
    pub counter: Option<String>,
    /// Memory model the simulated machine executes (`sc`, `tso`, `pso`, or
    /// `relaxed`); `None` leaves the execution layer's default (`tso`) in
    /// charge. Partitions the result cache: items run under different
    /// models have different fingerprints.
    pub model: Option<String>,
    /// Items per executor chunk between write-ahead journal sync points —
    /// the unit of crash data loss (0 behaves as 1).
    pub journal_chunk: u64,
    /// Journal fsync policy (`always`, `batch`, or `never`); `None` leaves
    /// the engine default (`batch`) in charge.
    pub fsync: Option<String>,
}

impl CampaignSpec {
    /// A named spec with the library defaults (no tests or seeds yet).
    pub fn named(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            tests: Vec::new(),
            seeds: vec![1],
            iterations: 1_000,
            workers: 0,
            retries: 0,
            timeout_ms: None,
            frame_cap: Some(1_000_000),
            inject: None,
            counter: None,
            model: None,
            journal_chunk: 16,
            fsync: None,
        }
    }

    /// The durability policy the spec's journal keys describe.
    pub fn durability(&self) -> crate::engine::DurabilityPolicy {
        crate::engine::DurabilityPolicy {
            chunk: self.journal_chunk.min(usize::MAX as u64) as usize,
            fsync: self
                .fsync
                .as_deref()
                .and_then(crate::journal::FsyncPolicy::parse)
                .unwrap_or_default(),
        }
    }

    /// Parses the line format described in the module docs.
    ///
    /// # Errors
    /// [`CampaignError::Parse`] on unknown keys, malformed numbers, or a
    /// spec with no tests, no seeds, or zero iterations.
    pub fn parse(text: &str) -> Result<Self, CampaignError> {
        let mut spec = Self::named("campaign");
        let mut saw_tests = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = match raw.split_once('#') {
                Some((before, _)) => before.trim(),
                None => raw.trim(),
            };
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                CampaignError::Parse(format!(
                    "line {}: expected `key = value`, got {raw:?}",
                    lineno + 1
                ))
            })?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |what: &str| {
                CampaignError::Parse(format!("line {}: bad {what} {value:?}", lineno + 1))
            };
            match key {
                "name" => {
                    if value.is_empty()
                        || !value
                            .chars()
                            .all(|c| c.is_alphanumeric() || c == '-' || c == '_')
                    {
                        return Err(bad("name (alphanumeric, '-', '_')"));
                    }
                    spec.name = value.to_owned();
                }
                "tests" => {
                    spec.tests = split_list(value);
                    saw_tests = true;
                }
                "seeds" => {
                    spec.seeds = split_list(value)
                        .iter()
                        .map(|s| parse_u64(s))
                        .collect::<Option<Vec<u64>>>()
                        .ok_or_else(|| bad("seed list"))?;
                }
                "iterations" => {
                    spec.iterations = parse_u64(value).ok_or_else(|| bad("iteration count"))?;
                }
                "workers" => {
                    spec.workers = parse_u64(value).ok_or_else(|| bad("worker count"))? as usize;
                }
                "retries" => {
                    spec.retries = parse_u64(value)
                        .ok_or_else(|| bad("retry count"))?
                        .min(u32::MAX as u64) as u32;
                }
                "timeout_ms" => {
                    let ms = parse_u64(value).ok_or_else(|| bad("timeout"))?;
                    spec.timeout_ms = (ms > 0).then_some(ms);
                }
                "frame_cap" => {
                    let cap = parse_u64(value).ok_or_else(|| bad("frame cap"))?;
                    spec.frame_cap = (cap > 0).then_some(cap);
                }
                "inject" => {
                    spec.inject = (!value.is_empty()).then(|| value.to_owned());
                }
                "counter" => {
                    if !["exhaustive", "heuristic", "rf", ""].contains(&value) {
                        return Err(bad("counter (exhaustive, heuristic, or rf)"));
                    }
                    spec.counter = (!value.is_empty()).then(|| value.to_owned());
                }
                "model" => {
                    let lower = value.to_ascii_lowercase();
                    if !["sc", "tso", "x86-tso", "pso", "relaxed", "rmo", ""]
                        .contains(&lower.as_str())
                    {
                        return Err(bad("model (sc, tso, pso, or relaxed)"));
                    }
                    spec.model = (!value.is_empty()).then_some(lower);
                }
                "journal_chunk" => {
                    spec.journal_chunk = parse_u64(value).ok_or_else(|| bad("journal chunk"))?;
                }
                "fsync" => {
                    if !value.is_empty() && crate::journal::FsyncPolicy::parse(value).is_none() {
                        return Err(bad("fsync policy (always, batch, or never)"));
                    }
                    spec.fsync = (!value.is_empty()).then(|| value.to_owned());
                }
                other => {
                    return Err(CampaignError::Parse(format!(
                        "line {}: unknown key {other:?}",
                        lineno + 1
                    )));
                }
            }
        }
        if !saw_tests || spec.tests.is_empty() {
            return Err(CampaignError::Parse("spec lists no tests".to_owned()));
        }
        if spec.seeds.is_empty() {
            return Err(CampaignError::Parse("spec lists no seeds".to_owned()));
        }
        if spec.iterations == 0 {
            return Err(CampaignError::Parse(
                "iterations must be at least 1".to_owned(),
            ));
        }
        Ok(spec)
    }

    /// Canonical rendering; `parse(render(spec)) == spec` (round trip).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("name = {}\n", self.name));
        s.push_str(&format!("tests = {}\n", self.tests.join(", ")));
        s.push_str(&format!(
            "seeds = {}\n",
            self.seeds
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ));
        s.push_str(&format!("iterations = {}\n", self.iterations));
        s.push_str(&format!("workers = {}\n", self.workers));
        s.push_str(&format!("retries = {}\n", self.retries));
        s.push_str(&format!("timeout_ms = {}\n", self.timeout_ms.unwrap_or(0)));
        s.push_str(&format!("frame_cap = {}\n", self.frame_cap.unwrap_or(0)));
        if let Some(inject) = &self.inject {
            s.push_str(&format!("inject = {inject}\n"));
        }
        if let Some(counter) = &self.counter {
            s.push_str(&format!("counter = {counter}\n"));
        }
        if let Some(model) = &self.model {
            s.push_str(&format!("model = {model}\n"));
        }
        if self.journal_chunk != 16 {
            s.push_str(&format!("journal_chunk = {}\n", self.journal_chunk));
        }
        if let Some(fsync) = &self.fsync {
            s.push_str(&format!("fsync = {fsync}\n"));
        }
        s
    }

    /// Number of items the spec expands to (tests × seeds) **before** the
    /// execution layer expands magic test entries like `convertible`.
    pub fn nominal_items(&self) -> usize {
        self.tests.len() * self.seeds.len()
    }
}

fn split_list(value: &str) -> Vec<String> {
    value
        .split([',', ' '])
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(str::to_owned)
        .collect()
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = "\
# tiny campaign
name = smoke
tests = sb, mp lb   # mixed separators
seeds = 1, 2
iterations = 400
workers = 2
retries = 1
timeout_ms = 0
frame_cap = 1000000
inject = corrupt@t0:0..100
counter = rf
";

    #[test]
    fn parses_the_documented_example() {
        let spec = CampaignSpec::parse(EXAMPLE).unwrap();
        assert_eq!(spec.name, "smoke");
        assert_eq!(spec.tests, ["sb", "mp", "lb"]);
        assert_eq!(spec.seeds, [1, 2]);
        assert_eq!(spec.iterations, 400);
        assert_eq!(spec.workers, 2);
        assert_eq!(spec.retries, 1);
        assert_eq!(spec.timeout_ms, None, "0 means unbudgeted");
        assert_eq!(spec.frame_cap, Some(1_000_000));
        assert_eq!(spec.inject.as_deref(), Some("corrupt@t0:0..100"));
        assert_eq!(spec.counter.as_deref(), Some("rf"));
        assert_eq!(spec.nominal_items(), 6);
    }

    #[test]
    fn render_parse_round_trip_is_identity() {
        let spec = CampaignSpec::parse(EXAMPLE).unwrap();
        let reparsed = CampaignSpec::parse(&spec.render()).unwrap();
        assert_eq!(spec, reparsed);
        // And canonical text is a fixpoint.
        assert_eq!(spec.render(), reparsed.render());
    }

    #[test]
    fn hex_seeds_and_magic_tests() {
        let spec =
            CampaignSpec::parse("tests = convertible\nseeds = 0x10\niterations = 5\n").unwrap();
        assert_eq!(spec.seeds, [16]);
        assert_eq!(spec.tests, ["convertible"]);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for (bad, why) in [
            ("", "no tests"),
            ("tests = sb\nseeds =\n", "empty seeds"),
            ("tests =\nseeds = 1\n", "empty tests"),
            ("tests = sb\nseeds = x\n", "junk seed"),
            ("tests = sb\nseeds = 1\niterations = 0\n", "zero iterations"),
            ("tests = sb\nseeds = 1\nfrobnicate = 9\n", "unknown key"),
            ("tests = sb\nseeds = 1\nworkers nine\n", "missing ="),
            ("name = bad name!\ntests = sb\nseeds = 1\n", "bad name"),
            ("tests = sb\nseeds = 1\ncounter = turbo\n", "bad counter"),
            ("tests = sb\nseeds = 1\nmodel = alpha\n", "bad model"),
            ("tests = sb\nseeds = 1\nfsync = maybe\n", "bad fsync"),
            ("tests = sb\nseeds = 1\njournal_chunk = x\n", "junk chunk"),
        ] {
            assert!(CampaignSpec::parse(bad).is_err(), "{why}: {bad:?}");
        }
    }

    #[test]
    fn defaults_apply_when_keys_are_omitted() {
        let spec = CampaignSpec::parse("tests = sb\nseeds = 3\n").unwrap();
        assert_eq!(spec.name, "campaign");
        assert_eq!(spec.iterations, 1_000);
        assert_eq!(spec.workers, 0);
        assert_eq!(spec.retries, 0);
        assert_eq!(spec.timeout_ms, None);
        assert_eq!(spec.frame_cap, Some(1_000_000));
        assert_eq!(spec.inject, None);
        assert_eq!(spec.counter, None);
        assert_eq!(spec.model, None);
        assert_eq!(spec.journal_chunk, 16);
        assert_eq!(spec.fsync, None);
    }

    #[test]
    fn model_key_parses_renders_and_stays_out_of_default_specs() {
        let spec = CampaignSpec::parse("tests = sb\nseeds = 1\nmodel = RELAXED\n").unwrap();
        assert_eq!(spec.model.as_deref(), Some("relaxed"), "lowercased");
        let reparsed = CampaignSpec::parse(&spec.render()).unwrap();
        assert_eq!(spec, reparsed, "model key round-trips");
        // Specs without the key keep their byte-exact canonical form, so
        // existing TSO campaigns keep their fingerprints and cache entries.
        let plain = CampaignSpec::parse("tests = sb\nseeds = 1\n").unwrap();
        assert!(!plain.render().contains("model"));
    }

    #[test]
    fn durability_keys_parse_render_and_map_to_the_policy() {
        use crate::engine::DurabilityPolicy;
        use crate::journal::FsyncPolicy;
        let spec =
            CampaignSpec::parse("tests = sb\nseeds = 1\njournal_chunk = 4\nfsync = always\n")
                .unwrap();
        assert_eq!(spec.journal_chunk, 4);
        assert_eq!(spec.fsync.as_deref(), Some("always"));
        assert_eq!(
            spec.durability(),
            DurabilityPolicy {
                chunk: 4,
                fsync: FsyncPolicy::Always
            }
        );
        let reparsed = CampaignSpec::parse(&spec.render()).unwrap();
        assert_eq!(spec, reparsed, "new keys round-trip");
        // Defaults map to the default policy and stay out of the canonical
        // rendering (existing spec files keep their byte-exact form).
        let plain = CampaignSpec::parse("tests = sb\nseeds = 1\n").unwrap();
        assert_eq!(plain.durability(), DurabilityPolicy::default());
        assert!(!plain.render().contains("journal_chunk"));
        assert!(!plain.render().contains("fsync"));
    }
}
