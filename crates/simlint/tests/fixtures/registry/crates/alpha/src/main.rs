//! exit-code-registry: every way a file can name `process::exit`.
//! Deliberately not compilable; the lint reads tokens.
use std::process;
use std::process as sys;
use std::process::exit;
use std::process::exit as quit;
use std::process::{abort, exit as bail, Command};

mod my {
    pub fn exit(_code: i32) {}
}

struct Job;

impl Job {
    fn exit(&self, _code: i32) {}
}

const EXIT_USAGE: i32 = 2;

fn written_out() {
    std::process::exit(4);
}

fn through_the_module() {
    process::exit(5);
}

fn imported() {
    exit(6);
}

fn renamed_on_import() {
    quit(7);
}

fn renamed_in_a_group() {
    bail(8);
}

fn through_a_renamed_module() {
    sys::exit(9);
}

fn with_more_arguments_and_separators() {
    exit(1_0, "not a real signature");
}

fn named_constants_pass() {
    std::process::exit(EXIT_USAGE);
    exit(exitcode::USAGE);
}

fn computed_codes_pass() {
    exit(1 + 1);
}

fn other_things_named_exit_stay_silent() {
    my::exit(11);
    Job.exit(12);
    self::exit(13);
}

fn inside_macro_arguments() {
    bail_unless!(ready, exit(14));
}

fn allowed() {
    // simlint::allow(exit-code-registry, reason = "fixture: a sanctioned literal")
    exit(15);
    exit(16); // simlint::allow(exit-code-registry, reason = "fixture: trailing form")
}

fn other_literal_forms() {
    std::process::exit(4i32);
    exit(0x04);
    exit(-1);
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_skipped() {
        std::process::exit(17);
    }
}
