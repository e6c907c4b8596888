//! Shared by the integration tests: the real workspace and its config,
//! and throw-away workspaces to seed bad code into.
#![allow(dead_code)] // each test binary uses its own subset

use simlint::config::{self, Config};
use std::path::{Path, PathBuf};

/// The repo this crate lives in.
pub fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/simlint has a workspace root two levels up")
}

/// The committed `simlint.toml`.
pub fn repo_config() -> Config {
    let text = std::fs::read_to_string(repo_root().join(simlint::CONFIG_FILE))
        .expect("workspace simlint.toml");
    config::parse(&text, simlint::CONFIG_FILE).expect("config parses")
}

/// A scratch workspace under the target tmp dir, cleaned up on drop.
pub struct Scratch {
    pub root: PathBuf,
}

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("simlint-{tag}"));
        let _ = std::fs::remove_dir_all(&root);
        Scratch { root }
    }

    pub fn write(&self, rel: &str, body: &str) {
        let path = self.root.join(rel);
        std::fs::create_dir_all(path.parent().expect("scratch files have a parent"))
            .expect("mkdir scratch");
        std::fs::write(path, body).expect("write scratch file");
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
