//! The one fixture walker under the golden tests: it lists, sorts and
//! reads `tests/fixtures/<dir>/*.rs`, takes each file's directives from
//! its leading comment lines, and checks a rendering against the
//! companion `.expected` snapshot byte for byte.
//!
//! * `//@path <workspace-rel-path>` — the path the file pretends to
//!   live at, so crate/src/test scoping applies exactly as in the
//!   workspace. The directive line is analysed too (it is a plain
//!   comment), keeping fixture line numbers identical to the snapshot's.
//! * `//@sink <name> <what>` — a declared `flow` sink for the
//!   fixture's run.
//!
//! Re-bless every snapshot after an intentional change with
//! `UPDATE_GOLDEN=1 cargo test -p hyades-lint`.

use hyades_lint::flow::SinkSpec;
use std::fs;
use std::path::{Path, PathBuf};

/// One fixture file and its source.
pub struct Fixture {
    pub path: PathBuf,
    pub src: String,
}

/// The `.rs` fixtures under `tests/fixtures/<dir>`, sorted by path.
pub fn fixtures(dir: &str) -> Vec<Fixture> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(dir);
    let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| Fixture {
            src: fs::read_to_string(&path).expect("fixture source"),
            path,
        })
        .collect()
}

/// The fixture `tests/fixtures/<dir>/<file>`.
pub fn fixture(dir: &str, file: &str) -> Fixture {
    let found = fixtures(dir).into_iter().find(|f| f.path.ends_with(file));
    found.unwrap_or_else(|| panic!("no fixture {dir}/{file}"))
}

impl Fixture {
    pub fn name(&self) -> String {
        self.path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .into_owned()
    }

    /// The `//@path` directive.
    pub fn rel(&self) -> &str {
        let rel = self.src.lines().find_map(|l| l.strip_prefix("//@path "));
        rel.unwrap_or_else(|| panic!("{}: missing //@path directive", self.name()))
            .trim()
    }

    /// The fixture as a one-file workspace at its `//@path`.
    pub fn input(&self) -> Vec<(String, String)> {
        vec![(self.rel().to_string(), self.src.clone())]
    }

    /// The `//@sink` directives, each hinting at the fixture's own path.
    /// `SinkSpec` carries `&'static str` (it is a const table in
    /// production); leaking the few directive strings of a test run is
    /// fine.
    pub fn sinks(&self) -> Vec<SinkSpec> {
        let sink = |line: &str| {
            let (name, what) = line
                .trim()
                .split_once(' ')
                .unwrap_or_else(|| panic!("{}: //@sink needs `name what`", self.name()));
            SinkSpec {
                name: String::leak(name.to_string()),
                path_hint: String::leak(self.rel().to_string()),
                what: String::leak(what.to_string()),
            }
        };
        let lines = self.src.lines();
        lines
            .filter_map(|l| l.strip_prefix("//@sink "))
            .map(sink)
            .collect()
    }

    /// `got` must equal the snapshot; with `UPDATE_GOLDEN` set it
    /// becomes the snapshot instead.
    pub fn check(&self, got: &str) {
        let (name, snapshot) = (self.name(), self.path.with_extension("expected"));
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            fs::write(&snapshot, got).expect("write snapshot");
            return;
        }
        let want = fs::read_to_string(&snapshot).unwrap_or_else(|e| {
            panic!("{name}: missing snapshot ({e}); bless with UPDATE_GOLDEN=1")
        });
        assert_eq!(
            got, want,
            "{name} drifted from its snapshot; bless an intentional change with UPDATE_GOLDEN=1"
        );
    }
}
