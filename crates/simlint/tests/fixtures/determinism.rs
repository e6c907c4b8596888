// Fixture: the sink rules (hash-container, wall-clock, thread-id,
// ambient-input, rng-discipline). Never compiled — linted by
// golden_fixtures.rs.
use std::collections::HashMap;
use std::collections::HashSet;
use std::time::{Instant, SystemTime};

struct State {
    flows: HashMap<u64, u64>,
    seen: HashSet<u64>,
}

fn bad_clock() -> f64 {
    let t0 = Instant::now();
    let _wall = SystemTime::now();
    t0.elapsed().as_secs_f64()
}

fn bad_identity() -> u64 {
    let _hasher_seed = std::collections::hash_map::RandomState::new();
    std::thread::current().id();
    0
}

fn bad_rng(seed: u64) -> u64 {
    let mut rng = SimRng::new(seed);
    rng.next_u64()
}

fn bad_hashers(id: std::thread::ThreadId) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    id.hash(&mut h);
    h.finish()
}

fn bad_ambient() -> u64 {
    let _home = std::env::var("HOME");
    let _path = std::env::var_os("PATH");
    let _all = (std::env::vars().count(), std::env::vars_os().count());
    let mut buf = [0u8; 8];
    getrandom(&mut buf);
    let _rng = StdRng::from_entropy();
    OsRng.next_u64()
}

// A sink is reported where it is named, however it is brought into
// scope: a renamed import, a leaf pulled out of a group, a glob.
mod laundered {
    use std::env::{args, var};
    use std::thread::*;
    use std::time::Instant as Clock;

    fn helper() -> bool {
        let _t = Clock::now();
        var("SEED").is_ok()
    }

    // `Instant` alone is a type, not a read; `thread as` outside a
    // `use` is a cast of a local.
    fn fine(deadline: Option<Instant>, thread: u32) -> u64 {
        thread as u64
    }
}

#[cfg(test)]
mod tests {
    // Test code is exempt: none of these may fire.
    use std::collections::HashMap;

    #[test]
    fn t() {
        let m: HashMap<u32, u32> = HashMap::new();
        let _ = std::time::Instant::now();
        let _rng = SimRng::new(7);
        assert!(m.is_empty());
    }
}
