//! The unified export surface.
//!
//! Before this module, every telemetry producer grew its own ad-hoc
//! exporter: the run recorder rendered Chrome-trace JSON and a text
//! summary, the diagnostics series rendered text/JSON/Prometheus, the
//! critical-path profiler rendered text/JSON, and the fabric
//! observatory rendered Prometheus plus a JSON manifest — five surfaces
//! with five call shapes, and every harness (bench, tour, examples)
//! hand-wired `fs::write` calls per format.
//!
//! [`Exporter`] collapses those into one shape: a producer yields
//! [`Artifact`]s — named, typed, fully rendered documents — and callers
//! handle them uniformly: [`Exporter::export_all`] streams them to any
//! `Write` with `tail(1)`-style headers, and [`write_artifacts_to_dir`]
//! lands one file per artifact using the kind's canonical extension.
//!
//! The artifacts themselves are the *same bytes* the legacy render
//! methods produce (each impl delegates to them), so every determinism
//! guarantee in `tests/determinism.rs` carries over: same seed, same
//! artifacts, byte for byte. Producers outside this crate (e.g. the
//! Arctic observatory's `FabricReport`) participate via [`Prebuilt`],
//! which wraps already-rendered strings.

use crate::critpath::CritPath;
use crate::diag::DiagSeries;
use crate::export::RunTelemetry;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// What a rendered artifact is, which fixes its file extension and how
/// downstream tooling should parse it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ArtifactKind {
    /// Machine-readable JSON (manifests, series, summaries).
    Json,
    /// Chrome trace-event JSON (loadable in Perfetto / `chrome://tracing`).
    ChromeTrace,
    /// Prometheus text exposition.
    Prom,
    /// Human-readable deterministic text report.
    Text,
    /// Comma-separated point data of a figure, header row first.
    Csv,
}

impl ArtifactKind {
    pub fn extension(self) -> &'static str {
        match self {
            ArtifactKind::Json | ArtifactKind::ChromeTrace => "json",
            ArtifactKind::Prom => "prom",
            ArtifactKind::Text => "txt",
            ArtifactKind::Csv => "csv",
        }
    }
}

/// One named, fully rendered export document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Artifact {
    /// Base name, without extension (e.g. `"fabric_manifest"`).
    pub name: String,
    pub kind: ArtifactKind,
    /// The rendered document. Producers guarantee these bytes are
    /// deterministic for a given seed.
    pub bytes: String,
}

impl Artifact {
    pub fn new(name: &str, kind: ArtifactKind, bytes: String) -> Artifact {
        Artifact {
            name: name.to_string(),
            kind,
            bytes,
        }
    }

    /// `name.ext` with the kind's canonical extension.
    pub fn file_name(&self) -> String {
        format!("{}.{}", self.name, self.kind.extension())
    }
}

/// Anything that can hand over its run artifacts.
pub trait Exporter {
    /// Render every artifact this producer owns, in a deterministic
    /// order.
    fn artifacts(&self) -> Vec<Artifact>;

    /// Stream every artifact to one writer, each prefixed with a
    /// `==> name.ext <==` header line (the `tail -n +1` convention) and
    /// terminated by a newline.
    fn export_all(&self, w: &mut dyn Write) -> io::Result<()> {
        for a in self.artifacts() {
            writeln!(w, "==> {} <==", a.file_name())?;
            w.write_all(a.bytes.as_bytes())?;
            if !a.bytes.ends_with('\n') {
                writeln!(w)?;
            }
        }
        Ok(())
    }
}

/// Already-rendered artifacts wrapped as an [`Exporter`] — the adapter
/// for producers that live outside this crate (the Arctic observatory,
/// the Ethernet control-network sim) or for harnesses assembling a
/// mixed bundle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Prebuilt {
    artifacts: Vec<Artifact>,
}

impl Prebuilt {
    pub fn new(artifacts: Vec<Artifact>) -> Prebuilt {
        Prebuilt { artifacts }
    }

    /// Builder-style append.
    pub fn with(mut self, name: &str, kind: ArtifactKind, bytes: String) -> Prebuilt {
        self.artifacts.push(Artifact::new(name, kind, bytes));
        self
    }

    /// Absorb every artifact of another exporter.
    pub fn extend_from(mut self, other: &dyn Exporter) -> Prebuilt {
        self.artifacts.extend(other.artifacts());
        self
    }
}

impl Exporter for Prebuilt {
    fn artifacts(&self) -> Vec<Artifact> {
        self.artifacts.clone()
    }
}

/// Write one file per artifact into `dir` (created if missing),
/// returning the paths written. Two artifacts rendering to the same
/// file name is a caller bug and panics rather than silently clobbering.
pub fn write_artifacts_to_dir(exporter: &dyn Exporter, dir: &Path) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written: Vec<PathBuf> = Vec::new();
    for a in exporter.artifacts() {
        let path = dir.join(a.file_name());
        assert!(
            !written.contains(&path),
            "duplicate artifact file name {}",
            a.file_name()
        );
        std::fs::write(&path, a.bytes.as_bytes())?;
        written.push(path);
    }
    Ok(written)
}

impl Exporter for RunTelemetry {
    /// `trace.json` (Chrome trace) + `telemetry.txt` (text summary).
    fn artifacts(&self) -> Vec<Artifact> {
        vec![
            Artifact::new("trace", ArtifactKind::ChromeTrace, self.chrome_trace_json()),
            Artifact::new("telemetry", ArtifactKind::Text, self.text_summary()),
        ]
    }
}

impl Exporter for DiagSeries {
    /// `diag_<name>.{txt,json,prom}` — all three diagnostic renderings.
    fn artifacts(&self) -> Vec<Artifact> {
        let base = format!("diag_{}", self.name());
        vec![
            Artifact::new(&base, ArtifactKind::Text, self.render_text()),
            Artifact::new(&base, ArtifactKind::Json, self.render_json()),
            Artifact::new(&base, ArtifactKind::Prom, self.render_prom("hyades")),
        ]
    }
}

impl Exporter for CritPath {
    /// `critpath.txt` (blame report) + `critpath.json` (summary).
    fn artifacts(&self) -> Vec<Artifact> {
        vec![
            Artifact::new("critpath", ArtifactKind::Text, self.render()),
            Artifact::new("critpath", ArtifactKind::Json, self.render_json()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::DiagRow;

    fn sample_series() -> DiagSeries {
        let mut s = DiagSeries::new("ocean");
        let mut r = DiagRow::new(1);
        r.set("cfl_adv", 0.25).set("ke_u", 12.5);
        s.push(r);
        s
    }

    #[test]
    fn kinds_pick_canonical_extensions() {
        assert_eq!(ArtifactKind::Json.extension(), "json");
        assert_eq!(ArtifactKind::ChromeTrace.extension(), "json");
        assert_eq!(ArtifactKind::Prom.extension(), "prom");
        assert_eq!(ArtifactKind::Text.extension(), "txt");
        assert_eq!(ArtifactKind::Csv.extension(), "csv");
        let a = Artifact::new("fabric_manifest", ArtifactKind::Json, "{}".into());
        assert_eq!(a.file_name(), "fabric_manifest.json");
    }

    #[test]
    fn diag_series_exports_all_three_renderings() {
        let s = sample_series();
        let arts = s.artifacts();
        assert_eq!(arts.len(), 3);
        assert_eq!(arts[0].file_name(), "diag_ocean.txt");
        assert_eq!(arts[1].file_name(), "diag_ocean.json");
        assert_eq!(arts[2].file_name(), "diag_ocean.prom");
        // Identical bytes to the legacy render methods.
        assert_eq!(arts[0].bytes, s.render_text());
        assert_eq!(arts[1].bytes, s.render_json());
        assert_eq!(arts[2].bytes, s.render_prom("hyades"));
    }

    #[test]
    fn export_all_streams_with_tail_headers() {
        let s = sample_series();
        let mut buf: Vec<u8> = Vec::new();
        s.export_all(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("==> diag_ocean.txt <=="));
        assert!(text.contains("==> diag_ocean.json <=="));
        assert!(text.contains("==> diag_ocean.prom <=="));
        assert!(text.contains("cfl_adv"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn prebuilt_bundles_and_extends() {
        let bundle = Prebuilt::default()
            .with("fabric", ArtifactKind::Prom, "# TYPE x gauge\n".into())
            .extend_from(&sample_series());
        let arts = bundle.artifacts();
        assert_eq!(arts.len(), 4);
        assert_eq!(arts[0].file_name(), "fabric.prom");
        assert_eq!(arts[3].file_name(), "diag_ocean.prom");
    }

    #[test]
    fn write_to_dir_lands_one_file_per_artifact() {
        let dir = std::env::temp_dir().join(format!("hyades-artifact-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let paths = write_artifacts_to_dir(&sample_series(), &dir).unwrap();
        assert_eq!(paths.len(), 3);
        for p in &paths {
            let body = std::fs::read_to_string(p).unwrap();
            assert!(!body.is_empty(), "{p:?} empty");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "duplicate artifact file name")]
    fn duplicate_file_names_panic() {
        let dir = std::env::temp_dir().join(format!("hyades-artifact-dup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let bundle = Prebuilt::default()
            .with("x", ArtifactKind::Text, "a".into())
            .with("x", ArtifactKind::Text, "b".into());
        let _ = write_artifacts_to_dir(&bundle, &dir);
    }
}
