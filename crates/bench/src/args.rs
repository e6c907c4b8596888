//! The one argument reader behind every command. Anything malformed is
//! a [`Usage`] error, which `main` prints next to the command's usage
//! line before exiting `exitcode::USAGE` (`tests/cli.rs` drives each).

use std::str::FromStr;

/// A malformed invocation: the message naming the offending input.
#[derive(Debug)]
pub struct Usage(pub String);

/// A command's arguments (everything after its name), read front to
/// back; as an iterator it yields them raw (a flag-taking command's loop).
pub struct Args(std::vec::IntoIter<String>);

impl Iterator for Args {
    type Item = String;
    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

impl Args {
    /// Wrap the arguments after the command name.
    pub fn new(args: Vec<String>) -> Args {
        Args(args.into_iter())
    }

    /// The value that must follow `flag`.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, Usage> {
        self.positional(flag)?
            .ok_or_else(|| Usage(format!("{flag} needs a value")))
    }

    /// The next argument as the optional positional `what`: absent is
    /// `None` (the caller's default), present but unparsable an error.
    pub fn positional<T: FromStr>(&mut self, what: &str) -> Result<Option<T>, Usage> {
        let parse = |raw: String| {
            raw.parse()
                .map_err(|_| Usage(format!("invalid value {raw:?} for {what}")))
        };
        self.next().map(parse).transpose()
    }

    /// Reject whatever the command left unread.
    pub fn finish(&mut self) -> Result<(), Usage> {
        match self.next() {
            Some(extra) => Err(Usage(format!("unexpected argument {extra:?}"))),
            None => Ok(()),
        }
    }
}
