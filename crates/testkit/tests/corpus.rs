//! Replay the committed regression corpus (`crates/testkit/corpus/`).
//!
//! Each `*.case` file is a minimised input promoted out of proptest's
//! local-only regression cache; each `*.model` file is a minimised fuzz
//! counterexample artifact pinned after its bug was fixed. Both kinds
//! replay on every `cargo test` with zero randomness, and an unknown
//! `property` name fails the test rather than skipping — a case can
//! never rot into a silent no-op.
//!
//! The case format is one of six read through `pevpm_obs::text`; the last
//! test here feeds all six malformed documents.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use pevpm_dist::{io, CommDist, DistKey, DistTable, Ecdf, FitKind, Histogram, Op, ParametricFit};
use pevpm_netsim::FaultPlan;
use pevpm_obs::text::{self, LineError};
use pevpm_testkit::campaign::{replay, CampaignConfig};
use pevpm_testkit::{generate, Counterexample, GenConfig, TestProgram};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

type Case<'a> = BTreeMap<&'a str, &'a str>;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Parse a case file: one `key = value` binding per line.
fn parse_case(text: &str) -> Result<Case<'_>, LineError> {
    text::lines(text)
        .map(|line| {
            line.binding()
                .ok_or_else(|| line.err(format!("expected key = value, got {:?}", line.text)))
        })
        .collect()
}

fn field<'a>(kv: &Case<'a>, name: &str, key: &str) -> &'a str {
    kv.get(key)
        .unwrap_or_else(|| panic!("{name}: missing key {key:?}"))
}

fn floats(s: &str, name: &str) -> Vec<f64> {
    s.split_whitespace()
        .map(|t| {
            t.parse()
                .unwrap_or_else(|_| panic!("{name}: bad float {t:?}"))
        })
        .collect()
}

/// The adaptive-stopping reference rule on a pinned sample stream:
/// `stop_point` must stop at exactly `stop`, convergence must match,
/// and the drift detector over the full stream must return `drift`.
/// These witnesses pin the statistical machinery (Student-t quantile,
/// Welford accumulation, Welch drift test) bit-for-bit across refactors.
fn replay_adaptive_oracle(kv: &Case, name: &str) {
    use pevpm::stats::{self, AdaptivePolicy};
    use pevpm_dist::Summary;

    let num = |key: &str| -> f64 {
        field(kv, name, key)
            .parse()
            .unwrap_or_else(|_| panic!("{name}: bad number for {key}"))
    };
    let stream = floats(field(kv, name, "stream"), name);
    assert!(!stream.is_empty(), "{name}: empty stream");
    let policy = AdaptivePolicy::new(num("precision"))
        .with_min_reps(num("min_reps") as usize)
        .with_max_reps(num("max_reps") as usize)
        .with_confidence(num("confidence"));
    policy
        .validate()
        .unwrap_or_else(|e| panic!("{name}: invalid pinned policy: {e}"));

    let expected_stop = num("stop") as usize;
    let stop = policy.stop_point(&stream);
    assert_eq!(
        stop, expected_stop,
        "{name}: stopping rule moved (pinned {expected_stop}, got {stop})"
    );
    let converged = policy.satisfied(&Summary::from_slice(&stream[..stop]));
    assert_eq!(
        converged.to_string(),
        field(kv, name, "converged"),
        "{name}: convergence verdict moved"
    );
    let drift = stats::detect_drift(&stream, stats::DRIFT_ALPHA);
    assert_eq!(
        drift.to_string(),
        field(kv, name, "drift"),
        "{name}: drift verdict moved"
    );
}

/// The type-7 quantile/cdf consistency property from `tests/proptests.rs`
/// (`ecdf_quantile_cdf_consistency`), replayed on a pinned witness.
fn replay_ecdf_quantile_cdf(kv: &Case, name: &str) {
    let q: f64 = field(kv, name, "q")
        .parse()
        .unwrap_or_else(|_| panic!("{name}: bad q"));
    let samples = floats(field(kv, name, "samples"), name);
    assert!(!samples.is_empty(), "{name}: empty samples");

    let e = Ecdf::new(&samples);
    let x = e.quantile(q).expect("quantile on non-empty ECDF");
    let n = samples.len() as f64;
    assert!(
        e.cdf(x) + 1.0 / n + 1e-9 >= q,
        "{name}: cdf(quantile({q})) = {} < q - 1/n",
        e.cdf(x)
    );
    assert!(x >= e.quantile(0.0).unwrap(), "{name}: below minimum");
    assert!(x <= e.quantile(1.0).unwrap(), "{name}: above maximum");
}

#[test]
fn corpus_replays_clean() {
    let dir = corpus_dir();
    let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .map(|r| r.expect("corpus dir entry").path())
        .collect();
    entries.sort();

    let mut cases = 0usize;
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("<non-utf8>")
            .to_string();
        let ext = path.extension().and_then(|e| e.to_str());
        match ext {
            Some("case") => {
                let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
                let kv = parse_case(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
                match field(&kv, &name, "property") {
                    "ecdf-quantile-cdf-consistency" => replay_ecdf_quantile_cdf(&kv, &name),
                    "adaptive-oracle" => replay_adaptive_oracle(&kv, &name),
                    other => panic!(
                        "{name}: unknown property {other:?} — add a replayer \
                         in crates/testkit/tests/corpus.rs"
                    ),
                }
                cases += 1;
            }
            Some("model") => {
                // Pinned fuzz counterexamples document *fixed* bugs: they
                // must now pass their recorded oracle.
                let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
                let cx = Counterexample::parse(&text)
                    .unwrap_or_else(|e| panic!("{name}: bad artifact: {e}"));
                let cfg = CampaignConfig::default();
                if let Err(f) = replay(&cx, &cfg) {
                    panic!("{name}: pinned counterexample regressed:\n{f}");
                }
                cases += 1;
            }
            _ => {} // README.md and friends
        }
    }
    assert!(cases >= 1, "corpus must contain at least one case");
}

/// A table with every body kind, and a run-length gap before an outlier.
fn small_table() -> DistTable {
    let key = |op, size, contention| DistKey {
        op,
        size,
        contention,
    };
    let mut h = Histogram::new(1.0e-4, 1.0e-6);
    for i in 0..40 {
        h.add(1.0e-4 + f64::from(i % 13) * 3.0e-6);
    }
    h.add(0.2);
    let fit = ParametricFit {
        kind: FitKind::ShiftedGamma,
        shift: 5.0e-3,
        p1: 2.0,
        p2: 1.0e-3,
    };
    let mut t = DistTable::new();
    t.insert(key(Op::Isend, 1024, 32), CommDist::Hist(h));
    t.insert(key(Op::Barrier, 0, 64), CommDist::Point(4.2e-4));
    t.insert(key(Op::Send, 65536, 1), CommDist::Fit(fit));
    t
}

const SCENARIO: &str = "\
# every section, with trailing comments
loss_prob = 0.01
[[degrade]]
node = 3
rate_factor = 0.5   # half duplex
[[flap]]
node = 2
from = 0.1
to = 0.25
[[background]]
src = 0
dst = 5
bytes = 65536
period = 0.01
count = 10
[[pause]]
node = 1
at = 0.05
duration = 0.02
";

/// Every format read through `pevpm_obs::text` fails cleanly: for every
/// truncation of a valid document and for seeded single-byte edits of it,
/// the reader returns `Ok` or a `LineError` blaming a line inside the
/// document. It never panics.
#[test]
fn every_text_format_rejects_malformed_input_with_a_line_inside_it() {
    type Reader = fn(&str) -> Result<(), LineError>;
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/counterexample.model");
    let read = |path: &Path| fs::read_to_string(path).unwrap_or_else(|e| panic!("{e}"));
    let formats: [(&str, String, Reader); 6] = [
        (".dist table", io::write_table(&small_table()), |s| {
            io::read_table(s).map(drop)
        }),
        ("fault scenario", SCENARIO.to_string(), |s| {
            FaultPlan::parse_toml(s).map(drop)
        }),
        ("annotations", pevpm::JACOBI_FIG5.to_string(), |s| {
            pevpm::parse_annotations(s).map(drop)
        }),
        (
            "program text",
            generate(&GenConfig::differential(), 7).to_text(),
            |s| TestProgram::parse(s).map(drop),
        ),
        ("counterexample", read(&golden), |s| {
            Counterexample::parse(s).map(drop)
        }),
        (
            "case file",
            read(&corpus_dir().join("adaptive-stop-01.case")),
            |s| parse_case(s).map(drop),
        ),
    ];
    const EDIT_BYTES: &[u8] = b"0123456789 =#&x.-e{}[],:\n";
    let mut rng = SmallRng::seed_from_u64(29);
    for (name, doc, reader) in formats {
        assert_eq!(reader(&doc), Ok(()), "{name}: the valid document");
        let truncations = (0..doc.len())
            .filter(|&cut| doc.is_char_boundary(cut))
            .map(|cut| doc[..cut].to_string());
        let edits = (0..300).filter_map(|_| {
            let mut bytes = doc.clone().into_bytes();
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = EDIT_BYTES[rng.gen_range(0..EDIT_BYTES.len())];
            String::from_utf8(bytes).ok()
        });
        for input in truncations.chain(edits) {
            let lines = input.lines().count().max(1);
            match std::panic::catch_unwind(|| reader(&input)) {
                Ok(Ok(())) => {}
                Ok(Err(e)) => assert!(
                    (1..=lines).contains(&e.line),
                    "{name}: {e} is outside the {lines} line(s) of\n{input}"
                ),
                Err(_) => panic!("{name}: the reader panicked on\n{input}"),
            }
        }
    }
}
