//! Pins the README "Workspace map" to the workspace: the `crates/`
//! directories the map lists must be exactly the `crates/` members of
//! the root `Cargo.toml`. Adding or deleting a crate without updating
//! the map fails this test.

use std::collections::BTreeSet;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

/// The `crates/...` entries of the root manifest's `members = [...]`.
fn manifest_crates(manifest: &str) -> BTreeSet<String> {
    let list = manifest
        .split("\nmembers = [")
        .nth(1)
        .expect("root Cargo.toml must have a `members = [` list")
        .split(']')
        .next()
        .unwrap();
    list.split(',')
        .map(|m| m.trim().trim_matches('"'))
        .filter(|m| m.starts_with("crates/"))
        .map(|m| m.trim_end_matches('/').to_string())
        .collect()
}

/// The directories the README map lists under its `crates/` line: the
/// first token of each indented line that follows it, up to the next
/// unindented line.
fn readme_crates(readme: &str) -> BTreeSet<String> {
    let block = readme
        .split("## Workspace map")
        .nth(1)
        .expect("README must keep the '## Workspace map' section")
        .split("```")
        .nth(1)
        .expect("the workspace map is a fenced block");
    let mut in_crates = false;
    let mut dirs = BTreeSet::new();
    for line in block.lines().filter(|l| !l.trim().is_empty()) {
        if !line.starts_with(' ') {
            in_crates = line.trim_end() == "crates/";
        } else if in_crates {
            let dir = line.split_whitespace().next().unwrap();
            dirs.insert(format!("crates/{}", dir.trim_end_matches('/')));
        }
    }
    dirs
}

#[test]
fn readme_workspace_map_lists_every_crate() {
    let root = repo_root();
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("Cargo.toml");
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let members = manifest_crates(&manifest);
    assert!(
        members.contains("crates/harness"),
        "manifest scan is broken: {members:?}"
    );
    assert_eq!(
        readme_crates(&readme),
        members,
        "README 'Workspace map' crates/ lines (left) differ from the root \
         Cargo.toml members (right)"
    );
}
