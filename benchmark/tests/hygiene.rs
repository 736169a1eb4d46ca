//! Keeps the benchmark honest about its own build and its own reach.

use std::path::{Path, PathBuf};

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The `key = value` lines of `[profile.release]` in a manifest, sorted,
/// comments and blank lines dropped.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text =
        std::fs::read_to_string(manifest).unwrap_or_else(|e| panic!("{}: {e}", manifest.display()));
    let mut lines: Vec<String> = text
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(|l| l.split_whitespace().collect::<String>())
        .collect();
    lines.sort();
    lines
}

#[test]
fn release_profile_equals_the_root_manifests() {
    let root = release_profile(&manifest_dir().join("../Cargo.toml"));
    let own = release_profile(&manifest_dir().join("Cargo.toml"));
    assert!(!root.is_empty(), "root manifest has no [profile.release]");
    assert_eq!(
        own, root,
        "benchmark/Cargo.toml must repeat the root's [profile.release]: \
         a different build would measure a different program"
    );
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The benchmark uses only what a user's experiment uses, so the oracles
/// and knobs ROADMAP item 2 wants deleted can go without touching it.
#[test]
fn sources_never_name_the_oracles_and_knobs() {
    const FORBIDDEN: [&str; 7] = [
        "accelerate",
        "set_cpu_bypass",
        "run_until_per_event",
        "baseline::",
        "with_frame_cache",
        "vote_full_copies",
        "DispatchMode",
    ];
    let mut sources = Vec::new();
    rust_sources(&manifest_dir().join("src"), &mut sources);
    assert!(!sources.is_empty());
    for path in sources {
        let text = std::fs::read_to_string(&path).expect("read source");
        for word in FORBIDDEN {
            assert!(!text.contains(word), "{} names `{word}`", path.display());
        }
    }
}
