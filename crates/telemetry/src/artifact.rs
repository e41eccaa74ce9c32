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
//! handle them uniformly: [`write_artifacts_to_dir`] lands one file per
//! artifact using the kind's canonical extension.
//!
//! Every producer hands over its rendered strings as a [`Prebuilt`], so
//! the artifacts are the *same bytes* the render methods produce and
//! every determinism guarantee in `tests/determinism.rs` carries over:
//! same seed, same artifacts, byte for byte.

use std::io;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bundle() -> Prebuilt {
        Prebuilt::default()
            .with("diag_ocean", ArtifactKind::Text, "cfl_adv 0.25\n".into())
            .with(
                "diag_ocean",
                ArtifactKind::Json,
                "{\"cfl_adv\":0.25}".into(),
            )
            .with("diag_ocean", ArtifactKind::Prom, "# TYPE x gauge\n".into())
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
    fn prebuilt_bundles_and_extends() {
        let bundle = Prebuilt::default()
            .with("fabric", ArtifactKind::Prom, "# TYPE x gauge\n".into())
            .extend_from(&sample_bundle());
        let arts = bundle.artifacts();
        assert_eq!(arts.len(), 4);
        assert_eq!(arts[0].file_name(), "fabric.prom");
        assert_eq!(arts[3].file_name(), "diag_ocean.prom");
    }

    #[test]
    fn write_to_dir_lands_one_file_per_artifact() {
        let dir = std::env::temp_dir().join(format!("hyades-artifact-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let paths = write_artifacts_to_dir(&sample_bundle(), &dir).unwrap();
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
