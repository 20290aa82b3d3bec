//! Replayable counterexample artifacts.
//!
//! A counterexample is written as a single text file ("`PEVPM-FUZZ
//! counterexample v1`") carrying the oracle that failed, the generator
//! seed, the deterministic failure description, the **minimised** program
//! in the [`TestProgram`] text form (parseable back), and the equivalent
//! `// PEVPM`-annotated model for human inspection. `cli fuzz --replay`
//! and the committed-corpus tests both consume this format.

use crate::oracle::Failure;
use crate::program::TestProgram;
use pevpm_obs::text::{self, LineError};

/// Artifact format version tag (the first line of every artifact).
pub const HEADER: &str = "PEVPM-FUZZ counterexample v1";

/// A minimised, replayable oracle failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// Which oracle failed ([`Failure::kind`]).
    pub oracle: String,
    /// Generator seed that produced the original failing program.
    pub seed: u64,
    /// Directive count of the original (pre-shrink) program.
    pub original_directives: usize,
    /// Deterministic failure description on the *minimised* program.
    pub failure: String,
    /// The minimised program.
    pub program: TestProgram,
}

impl Counterexample {
    /// Build from a failure, the seed, and the original/minimised pair.
    pub fn new(
        failure: &Failure,
        seed: u64,
        original: &TestProgram,
        minimised: TestProgram,
    ) -> Self {
        Counterexample {
            oracle: failure.kind().to_string(),
            seed,
            original_directives: original.directives(),
            failure: failure.to_string(),
            program: minimised,
        }
    }

    /// Render the artifact text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        out.push_str(&format!("oracle: {}\n", self.oracle));
        out.push_str(&format!("seed: {}\n", self.seed));
        out.push_str(&format!("nprocs: {}\n", self.program.nprocs));
        out.push_str(&format!(
            "directives: {} (shrunk from {})\n",
            self.program.directives(),
            self.original_directives
        ));
        out.push_str(&format!("failure: {}\n", self.failure));
        out.push_str("replay: cli fuzz --replay <this file>\n");
        out.push_str("--- program ---\n");
        out.push_str(&self.program.to_text());
        out.push_str("--- model ---\n");
        out.push_str(&self.program.to_annotated());
        out
    }

    /// Parse an artifact back. The `--- model ---` section is
    /// informational and ignored; the program section is authoritative.
    /// Errors carry the artifact's own line numbers.
    pub fn parse(text: &str) -> Result<Counterexample, LineError> {
        let mut lines = text::lines(text);
        let header = lines.next();
        let Some(mut end) = header.filter(|l| l.text == HEADER).map(|l| l.no) else {
            return Err(LineError::new(
                header.map_or(1, |l| l.no),
                format!("not a counterexample artifact (missing '{HEADER}')"),
            ));
        };
        let field = |line: usize, name: &str| {
            LineError::new(line, format!("missing or malformed field '{name}'"))
        };
        let (mut oracle, mut seed, mut original, mut failure) = (None, None, None, None);
        for line in lines.by_ref() {
            end = line.no;
            if line.text == "--- program ---" {
                break;
            }
            match line.text.split_once(": ") {
                Some(("oracle", v)) => oracle = Some(v),
                Some(("seed", v)) => seed = Some(v.parse().map_err(|_| field(line.no, "seed"))?),
                // "N (shrunk from M)": M is the original count.
                Some(("directives", v)) => {
                    let m = v.split("shrunk from ").nth(1);
                    let m = m.and_then(|s| s.trim_end_matches(')').parse().ok());
                    original = Some(m.ok_or_else(|| field(line.no, "directives"))?);
                }
                Some(("failure", v)) => failure = Some(v),
                _ => {}
            }
        }
        let program = TestProgram::read(
            lines.by_ref().take_while(|l| l.text != "--- model ---"),
            end,
        )?;
        Ok(Counterexample {
            oracle: oracle.ok_or_else(|| field(end, "oracle"))?.to_string(),
            seed: seed.ok_or_else(|| field(end, "seed"))?,
            original_directives: original.ok_or_else(|| field(end, "directives"))?,
            failure: failure.ok_or_else(|| field(end, "failure"))?.to_string(),
            program,
        })
    }

    /// Stable artifact file name: `<oracle>-seed<seed>.model`.
    pub fn file_name(&self) -> String {
        format!("{}-seed{}.model", self.oracle, self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use crate::oracle::Failure;

    fn sample() -> Counterexample {
        let prog = generate(&GenConfig::differential(), 7);
        let failure = Failure::Differential {
            left: "interpreted",
            right: "compiled",
            replication: 0,
            field: "makespan".into(),
            left_value: "1.0".into(),
            right_value: "2.0".into(),
        };
        Counterexample::new(&failure, 7, &prog, prog.clone())
    }

    #[test]
    fn artifacts_round_trip() {
        let cx = sample();
        let text = cx.render();
        assert!(text.starts_with(HEADER));
        assert!(text.contains("--- program ---"));
        assert!(text.contains("--- model ---"));
        let back = Counterexample::parse(&text).unwrap();
        assert_eq!(back, cx);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(
            Counterexample::parse("hello\nworld\n"),
            Err(LineError::new(
                1,
                format!("not a counterexample artifact (missing '{HEADER}')")
            ))
        );
        let cx = sample();
        // Blamed on the line that ends the header fields.
        let no_seed = cx.render().replace("seed: 7\n", "");
        assert_eq!(
            Counterexample::parse(&no_seed),
            Err(LineError::new(7, "missing or malformed field 'seed'"))
        );
    }

    #[test]
    fn file_name_is_stable() {
        assert_eq!(sample().file_name(), "differential-seed7.model");
    }
}
