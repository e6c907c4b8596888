//! `bench <command> [args]`: look the command up in [`bench::COMMANDS`],
//! run it, and exit with the code it returns.

#![forbid(unsafe_code)]

use bench::args::{Args, Usage};
use bench::{Ctx, COMMANDS};
use greenenvy::exitcode;

fn main() {
    let mut argv = std::env::args().skip(1);
    let name = argv.next();
    let mut args = Args::new(argv.collect());
    let code = match COMMANDS.iter().find(|c| Some(c.name) == name.as_deref()) {
        None => {
            if let Some(name) = name {
                eprintln!("error: unknown command {name:?}");
            }
            eprint!("{}", bench::help());
            exitcode::USAGE
        }
        Some(command) => {
            // A command whose usage names no argument takes none.
            let stray = match command.usage {
                "" => args.finish(),
                _ => Ok(()),
            };
            match stray.and_then(|()| (command.run)(&Ctx::default(), &mut args)) {
                Ok(code) => code,
                Err(Usage(message)) => {
                    let usage = [command.name, command.usage].join(" ");
                    eprintln!("error: {message}\nusage: bench {}", usage.trim_end());
                    exitcode::USAGE
                }
            }
        }
    };
    std::process::exit(code)
}
