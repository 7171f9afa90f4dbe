//! Replayable repro files.
//!
//! A corpus entry is a plain guest assembly file (the format of
//! [`smarq_guest::parse_program`]) with a machine-readable comment header
//! recording the seed, the divergence and the minimization result. Every
//! entry in `tests/corpus/` is replayed as a permanent regression test by
//! `tests/corpus_replay.rs` at the workspace root.

use smarq_guest::{disassemble, parse_program, ParseAsmError, Program};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Everything recorded about one captured divergence.
#[derive(Clone, Debug)]
pub struct Repro {
    /// Generator seed that produced the original failing program.
    pub seed: u64,
    /// Divergence label (see `Divergence::kind`) plus detail.
    pub divergence: String,
    /// Static instruction count before minimization.
    pub original_ops: usize,
    /// The minimized program.
    pub program: Program,
}

impl Repro {
    /// The corpus file name for this repro.
    pub fn file_name(&self) -> String {
        format!("seed_{:06}.s", self.seed)
    }

    /// Renders the repro as an assembly file with its comment header.
    pub fn render(&self) -> String {
        format!(
            "; smarq-fuzz minimized repro\n\
             ; seed: {}\n\
             ; divergence: {}\n\
             ; ops: {} -> {}\n\
             {}",
            self.seed,
            self.divergence,
            self.original_ops,
            self.program.static_instrs(),
            disassemble(&self.program)
        )
    }

    /// Writes the repro into `dir`, creating it if needed, as
    /// [`file_name`](Self::file_name) or, when that file exists, as the
    /// first free `seed_<seed>_<k>.s`: an existing entry is never
    /// overwritten. Returns the path written.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let mut path = dir.join(self.file_name());
        for k in 1u32.. {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    file.write_all(self.render().as_bytes())?;
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    path = dir.join(format!("seed_{:06}_{k}.s", self.seed));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(path)
    }

    /// A ready-to-paste Rust regression test exercising this repro
    /// through the full oracle stack.
    pub fn rust_snippet(&self) -> String {
        format!(
            "#[test]\n\
             fn fuzz_repro_seed_{seed}() {{\n\
             \x20   // {divergence}\n\
             \x20   let src = r#\"\n{asm}\"#;\n\
             \x20   let program = smarq_guest::parse_program(src).expect(\"repro parses\");\n\
             \x20   smarq_fuzz::check_program(&program, &smarq_fuzz::OracleParams::default())\n\
             \x20       .expect(\"repro must stay green\");\n\
             }}\n",
            seed = self.seed,
            divergence = self.divergence,
            asm = disassemble(&self.program),
        )
    }
}

/// Loads every `.s` entry in `dir` (sorted by file name). Missing
/// directories load as empty.
///
/// # Errors
/// Propagates filesystem errors; a file that fails to parse is reported
/// as [`io::ErrorKind::InvalidData`] with the parser's message.
pub fn load_dir(dir: &Path) -> io::Result<Vec<(PathBuf, Program)>> {
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "s"))
            .collect(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let src = std::fs::read_to_string(&path)?;
        let program = parse_program(&src).map_err(|e: ParseAsmError| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e:?}", path.display()),
            )
        })?;
        out.push((path, program));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, FuzzParams};

    #[test]
    fn render_roundtrips_through_the_parser() {
        let program = generate(5, &FuzzParams::default());
        let repro = Repro {
            seed: 5,
            divergence: "arch-mismatch under smarq8: r16".to_string(),
            original_ops: program.static_instrs(),
            program: program.clone(),
        };
        let parsed = parse_program(&repro.render()).expect("header comments are ignored");
        assert_eq!(parsed, program);
    }

    #[test]
    fn write_and_load_dir() {
        let dir = std::env::temp_dir().join(format!("smarq-fuzz-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let program = generate(9, &FuzzParams::default());
        let repro = Repro {
            seed: 9,
            divergence: "depgraph-mismatch".to_string(),
            original_ops: program.static_instrs(),
            program: program.clone(),
        };
        let path = repro.write_to(&dir).unwrap();
        assert!(path.ends_with("seed_000009.s"));
        let loaded = load_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].1, program);
        // The same seed again takes the next free name.
        let first = std::fs::read(&path).unwrap();
        let again = Repro {
            seed: 9,
            divergence: "arch-mismatch".to_string(),
            ..repro
        };
        assert!(again.write_to(&dir).unwrap().ends_with("seed_000009_1.s"));
        assert!(again.write_to(&dir).unwrap().ends_with("seed_000009_2.s"));
        assert_eq!(std::fs::read(&path).unwrap(), first);
        assert_eq!(load_dir(&dir).unwrap().len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snippet_mentions_the_oracle_entry_point() {
        let program = generate(3, &FuzzParams::default());
        let repro = Repro {
            seed: 3,
            divergence: "static-verify".to_string(),
            original_ops: program.static_instrs(),
            program,
        };
        let s = repro.rust_snippet();
        assert!(s.contains("fn fuzz_repro_seed_3"));
        assert!(s.contains("smarq_fuzz::check_program"));
    }
}
