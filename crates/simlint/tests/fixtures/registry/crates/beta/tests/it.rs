//! A test file: the registry rules skip it whole.

fn main() {
    std::process::exit(3);
    m.counter_add("NotChecked", l, 1);
}
