//! Walk-order independence: the full lint report — token findings,
//! registry rules, suppression settlement — must be a pure function of
//! the file *set*. The OS readdir order that feeds the real walk varies
//! across filesystems; if any pass leaked that order (a `HashMap`, a
//! first-come ownership claim), diagnostics could appear, vanish, or
//! reorder between machines.
//!
//! The subject is the real workspace: every source file this repo
//! ships, linted under the committed `simlint.toml`, shuffled.

mod common;

use common::{repo_config, repo_root};
use proptest::prelude::*;
use simlint::{config, lint_loaded, load_workspace, LoadedFile};

fn load() -> (Vec<LoadedFile>, config::Config, Option<String>) {
    let cfg = repo_config();
    let files = load_workspace(repo_root(), &cfg).expect("workspace loads");
    let lock = std::fs::read_to_string(repo_root().join("schema.lock")).ok();
    (files, cfg, lock)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn report_is_independent_of_file_order(seed in 0u64..u64::MAX) {
        let (mut files, cfg, lock) = load();
        prop_assert!(files.len() > 50, "workspace walk looks broken");
        let baseline = lint_loaded(&files, &cfg, lock.as_deref()).render_json();

        // Fisher–Yates with a splitmix64 stream off the proptest seed —
        // cheap, and every permutation is reachable.
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for i in (1..files.len()).rev() {
            files.swap(i, (next() % (i as u64 + 1)) as usize);
        }

        let shuffled = lint_loaded(&files, &cfg, lock.as_deref()).render_json();
        prop_assert_eq!(baseline, shuffled);
    }
}
