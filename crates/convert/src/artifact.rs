//! Stable serialization of conversion artifacts for content-addressed
//! caching.
//!
//! The campaign layer stores what the Converter produced for a test — the
//! per-thread perpetual assembly, the `t<i>_reads` parameter file, and the
//! generated `COUNT`/`COUNTH` C sources — in its artifact cache, keyed by a
//! fingerprint of the litmus source. [`ArtifactBundle`] gathers those
//! textual artifacts in one deterministic struct: every field is a pure
//! function of the conversion, so bundling the same test twice yields
//! byte-identical content (the property content addressing relies on).

use crate::{codegen, Conversion};

/// Everything the Converter emits for one test, in stable textual form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactBundle {
    /// Perpetual test name (the litmus test's name plus `.perp`).
    pub name: String,
    /// Target outcome label shared by `p_out` and `p_out_h`.
    pub target_label: String,
    /// Per-thread x86 assembly of the perpetual program.
    pub thread_asm: Vec<String>,
    /// The `t<i>_reads` parameter file.
    pub params: String,
    /// Generated C source of the exhaustive counter (`COUNT`).
    pub count_c: String,
    /// Generated C source of the heuristic counter (`COUNTH`).
    pub counth_c: String,
}

impl ArtifactBundle {
    /// Bundles the textual artifacts of a conversion.
    pub fn from_conversion(conv: &Conversion) -> Self {
        Self {
            name: conv.perpetual.name().to_owned(),
            target_label: conv.target_exhaustive.label().to_owned(),
            thread_asm: codegen::emit_thread_asm(&conv.perpetual),
            params: codegen::emit_params(&conv.perpetual),
            count_c: codegen::emit_count_c(&conv.perpetual, &conv.target_exhaustive),
            counth_c: codegen::emit_counth_c(&conv.perpetual, &conv.target_heuristic),
        }
    }

    /// One flat text document containing every artifact, with `====`
    /// section markers (the same shapes `perple convert` prints). Pure
    /// function of the bundle — byte-identical across processes.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "==== test {} (target {}) ====\n",
            self.name, self.target_label
        ));
        for (t, asm) in self.thread_asm.iter().enumerate() {
            s.push_str(&format!("==== thread {t} ====\n{asm}"));
            if !asm.ends_with('\n') {
                s.push('\n');
            }
        }
        s.push_str(&format!("==== params ====\n{}", self.params));
        if !self.params.ends_with('\n') {
            s.push('\n');
        }
        s.push_str(&format!("==== COUNT.c ====\n{}", self.count_c));
        if !self.count_c.ends_with('\n') {
            s.push('\n');
        }
        s.push_str(&format!("==== COUNTH.c ====\n{}", self.counth_c));
        if !self.counth_c.ends_with('\n') {
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perple_model::suite;

    #[test]
    fn bundling_is_deterministic() {
        let t = suite::sb();
        let a = ArtifactBundle::from_conversion(&Conversion::convert(&t).unwrap());
        let b = ArtifactBundle::from_conversion(&Conversion::convert(&t).unwrap());
        assert_eq!(a, b);
        assert_eq!(a.render_text(), b.render_text());
    }

    #[test]
    fn bundle_contains_every_artifact() {
        let t = suite::sb();
        let bundle = ArtifactBundle::from_conversion(&Conversion::convert(&t).unwrap());
        assert_eq!(bundle.name, "sb.perp");
        assert_eq!(bundle.thread_asm.len(), 2);
        let text = bundle.render_text();
        assert!(text.contains("==== thread 0 ===="));
        assert!(text.contains("t0_reads = 1"));
        assert!(text.contains("void COUNT("));
        assert!(text.contains("void COUNTH("));
    }
}
