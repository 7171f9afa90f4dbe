//! Standard output of the command-line front ends (`smarq`, `smarq-run`).
//!
//! `print!` panics when stdout is gone, so `smarq lint --list | head -2`
//! used to end in "failed printing to stdout: Broken pipe" and exit 101.
//! Every stdout line of the front ends goes through [`write_stdout`]
//! instead (by way of [`out!`](crate::out!) and
//! [`outln!`](crate::outln!)), which drops the rest of the output once
//! the reader has gone: the command runs to its end and exits with the
//! status it would have returned.

use std::fmt;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once a write to stdout has failed; later output is dropped.
static CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes `args` to the locked stdout, unless an earlier write failed.
/// A closed reader (`BrokenPipe`) ends the output silently; any other
/// write error ends it with one note on stderr.
pub fn write_stdout(args: fmt::Arguments<'_>) {
    if CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = io::stdout().lock().write_fmt(args) {
        CLOSED.store(true, Ordering::Relaxed);
        if e.kind() != io::ErrorKind::BrokenPipe {
            let _ = writeln!(io::stderr(), "stdout: {e}; dropping further output");
        }
    }
}

/// `print!` through [`write_stdout`]: never panics on a closed stdout.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::out::write_stdout(::std::format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`]: never panics on a closed stdout.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::out::write_stdout(::std::format_args!("{}\n", ::std::format_args!($($arg)*)))
    };
}
