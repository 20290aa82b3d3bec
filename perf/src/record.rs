//! The metric catalogue and the record one workload run produces.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single source of the metric
//! names, units and directions; `BENCHMARK.json` repeats them and a unit
//! test keeps the two in step. Every run reports every catalogue metric
//! of its kind — a per-layer metric whose layer the workload does not
//! drive reads 0 (see the layer → workload map in `perf/README.md`).

use pevpm_obs::json::{escape, num};

/// Which way is better for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A catalogue entry.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the system sees; every workload reports all of them
/// from the untraced run. Timings are host-normalised.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower),
    def("ops_per_s", "1/s", Higher),
    def("lat_p50_ms", "ms", Lower),
    def("peak_rss_mb", "MB", Lower),
];

/// Single-layer metrics, from the traced run. Unit `count` marks a
/// figure that repeats exactly and is gated on every run; tallies that
/// depend on how many requests a window held have unit `events`.
pub const PER_LAYER: &[MetricDef] = &[
    def("dist.sample_hist_ns", "ns", Lower),
    def("dist.sample_blend_ns", "ns", Lower),
    def("dist.sample_fit_ns", "ns", Lower),
    def("dist.compile_sweep_us", "us", Lower),
    def("dist.compile_synth_us", "us", Lower),
    def("dist.hist_build_ns_per_sample", "ns", Lower),
    def("dist.io_write_mb_s", "MB/s", Higher),
    def("dist.io_read_mb_s", "MB/s", Higher),
    def("pevpm.steps_per_s", "1/s", Higher),
    def("pevpm.steps", "count", Lower),
    def("pevpm.sb_peak", "count", Lower),
    def("pevpm.annotate_parse_us", "us", Lower),
    def("pevpm.eval_setup_us", "us", Lower),
    def("pevpm.replicate_overhead_us", "us", Lower),
    def("pevpm.interp_ratio", "x", Higher),
    def("pevpm.par_speedup", "x", Higher),
    def("pevpm.dag_speedup", "x", Higher),
    def("pevpm.adaptive_reps", "count", Lower),
    def("netsim.events_per_s", "1/s", Higher),
    def("netsim.frames_per_s", "1/s", Higher),
    def("netsim.events", "count", Lower),
    def("mpisim.msgs_per_s", "1/s", Higher),
    def("mpisim.us_per_event", "us", Lower),
    def("mpisim.handoff_us", "us", Lower),
    def("mpisim.barrier_us", "us", Lower),
    def("mpisim.spawn_ms", "ms", Lower),
    def("mpisim.messages", "count", Lower),
    def("mpibench.samples_per_s", "1/s", Higher),
    def("mpibench.p2p_s_32x1", "s", Lower),
    def("mpibench.table_build_us", "us", Lower),
    def("apps.model_build_us", "us", Lower),
    def("obs.json_parse_mb_s", "MB/s", Higher),
    def("obs.counter_inc_ns", "ns", Lower),
    def("obs.hist_record_ns", "ns", Lower),
    def("serve.handle_frame_us", "us", Lower),
    def("serve.tcp_overhead_us", "us", Lower),
    def("serve.ping_us", "us", Lower),
    def("serve.parse_request_us", "us", Lower),
    def("serve.render_us", "us", Lower),
    def("serve.frame_codec_mb_s", "MB/s", Higher),
    def("serve.model_cache_hit_ratio", "ratio", Higher),
    def("serve.table_cache_hit_ratio", "ratio", Higher),
    def("serve.evictions", "events", Lower),
    def("serve.stage_validate_us", "us", Lower),
    def("serve.stage_model_us", "us", Lower),
    def("serve.stage_compile_us", "us", Lower),
    def("serve.stage_eval_us", "us", Lower),
    def("serve.stage_render_us", "us", Lower),
    def("serve.self_us", "us", Lower),
    def("serve.queue_wait_us_mean", "us", Lower),
    def("serve.shed_total", "events", Lower),
    def("serve.batch8_us", "us", Lower),
    def("serve.lat_p90_ms", "ms", Lower),
    def("serve.lat_p99_ms", "ms", Lower),
    def("serve.lat_p999_ms", "ms", Lower),
    def("cli.oneshot_predict_ms", "ms", Lower),
    def("cli.args_parse_us", "us", Lower),
    def("proc.cpu_ms_per_op", "ms", Lower),
    def("proc.host_speed", "x", Higher),
    def("proc.trace_overhead_pct", "%", Lower),
    def("self_ms.pevpm", "ms", Lower),
    def("self_ms.dist", "ms", Lower),
    def("self_ms.mpisim", "ms", Lower),
    def("self_ms.mpibench", "ms", Lower),
    def("self_ms.serve", "ms", Lower),
    def("self_ms.socket", "ms", Lower),
    def("self_ms.harness", "ms", Lower),
];

/// The five workloads, in run order, each with the one-sentence reason
/// `BENCHMARK.json` records.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "predict_64x2",
        "The path every prediction takes: one 8-replication PEVPM Monte-Carlo batch of 1000-iteration Jacobi on 128 virtual processes; only the pevpm VM and the dist sampler work.",
    ),
    (
        "groundtruth_64x2",
        "The measured side of every accuracy claim: Jacobi on a 64x2 mpisim world, 128 rank threads handing off over netsim; pevpm does nothing, so a VM speed-up must not move it.",
    ),
    (
        "mpibench_sweep",
        "Producing the database: a 3-shape 7-size MPIBench sweep across the eager/rendezvous knee, then table write, read and compile; barriers and multi-frame transfers, unlike groundtruth.",
    ),
    (
        "serve_hot",
        "What-if traffic to the daemon over loopback: 2 closed-loop clients, 192 generated models, every cache lookup a hit, so codec, JSON, plan layer and socket wake-ups dominate.",
    ),
    (
        "serve_churn",
        "Same daemon, 320 models against a 256-entry clear-on-full cache: about half the lookups miss, putting parse and lowering back on the request path.",
    ),
];

/// A measured value under a catalogue name.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// Measured values keyed by catalogue name; later writes win.
#[derive(Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Record `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value = value,
            None => self.0.push(Metric { name, value }),
        }
    }

    /// The recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` over `catalogue`, in
    /// catalogue order; unrecorded entries read 0.
    pub fn to_json(&self, catalogue: &[MetricDef]) -> String {
        let body: Vec<String> = catalogue
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    num(self.get(d.name).unwrap_or(0.0)),
                    d.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// Names recorded that `catalogue` does not list (a harness bug).
    pub fn strangers(&self, catalogue: &[MetricDef]) -> Vec<&'static str> {
        self.0
            .iter()
            .map(|m| m.name)
            .filter(|n| !catalogue.iter().any(|d| d.name == *n))
            .collect()
    }
}

/// Free-form facts about a run, kept as ready-made JSON members.
#[derive(Debug, Default, Clone)]
pub struct Facts(Vec<(String, String)>);

impl Facts {
    /// A numeric fact.
    pub fn num(&mut self, key: &str, v: f64) {
        self.raw(key, num(v));
    }

    /// A string fact.
    pub fn text(&mut self, key: &str, v: &str) {
        self.raw(key, format!("\"{}\"", escape(v)));
    }

    /// A list-of-integers fact.
    pub fn list(&mut self, key: &str, v: &[usize]) {
        let items: Vec<String> = v.iter().map(|x| x.to_string()).collect();
        self.raw(key, format!("[{}]", items.join(", ")));
    }

    /// A fact whose value is already JSON.
    pub fn raw(&mut self, key: &str, json: String) {
        self.0.push((key.to_string(), json));
    }

    /// The facts as one JSON object.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", escape(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Ops started in the timed window.
    pub attempted: u64,
    /// Ops that errored, panicked, were shed or returned a wrong answer.
    pub failed: u64,
    /// End-to-end metrics (untraced run).
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced run).
    pub per_layer: Metrics,
    /// Seed, host, sizes, raw timings, sample counts …
    pub facts: Facts,
    /// Failed correctness gates and op errors; empty means correct.
    pub errors: Vec<String>,
}

impl RunRecord {
    /// Whether every gate held and no op failed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// Record a failed gate.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    /// Check `cond`, recording `msg` as a failed gate otherwise.
    pub fn gate(&mut self, cond: bool, msg: impl FnOnce() -> String) {
        if !cond {
            self.errors.push(msg());
        }
    }

    /// The one-line result object the benchmark contract prescribes.
    pub fn contract_json(&self) -> String {
        let metrics = if self.trace {
            self.per_layer.to_json(PER_LAYER)
        } else {
            self.end_to_end.to_json(END_TO_END)
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }

    /// The full record, one line, as stored in a result file.
    pub fn to_json(&self) -> String {
        let errors: Vec<String> = self
            .errors
            .iter()
            .map(|e| format!("\"{}\"", escape(e)))
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"trace\": {}, \"correct\": {}, \"attempted\": {}, \
             \"failed\": {}, \"end_to_end\": {}, \"per_layer\": {}, \"facts\": {}, \
             \"errors\": [{}]}}",
            escape(&self.workload),
            self.trace,
            self.correct(),
            self.attempted,
            self.failed,
            if self.trace {
                "{}".to_string()
            } else {
                self.end_to_end.to_json(END_TO_END)
            },
            if self.trace {
                self.per_layer.to_json(PER_LAYER)
            } else {
                "{}".to_string()
            },
            self.facts.to_json(),
            errors.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pevpm_obs::json::{self, Json};

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    /// `BENCHMARK.json` must list exactly the catalogue.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::as_array).unwrap();
            assert_eq!(listed.len(), catalogue.len(), "{key} length");
            for (j, d) in listed.iter().zip(catalogue) {
                assert_eq!(j.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(j.get("unit").and_then(Json::as_str), Some(d.unit));
                assert_eq!(
                    j.get("better").and_then(Json::as_str),
                    Some(d.better.name())
                );
            }
        }
        let listed = doc.get("workloads").and_then(Json::as_array).unwrap();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (j, (name, why)) in listed.iter().zip(WORKLOADS) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(*name));
            assert_eq!(j.get("why").and_then(Json::as_str), Some(*why));
            assert!(why.len() <= 200, "{name}: why is {} chars", why.len());
        }
    }

    #[test]
    fn contract_line_carries_every_metric_of_its_kind() {
        let mut r = RunRecord {
            workload: "predict_64x2".into(),
            attempted: 12,
            ..Default::default()
        };
        r.end_to_end.set("ops_per_s", 1.25);
        let doc = json::parse(&r.contract_json()).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let m = doc.get("metrics").and_then(Json::as_object).unwrap();
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(
            m["ops_per_s"].get("value").and_then(Json::as_num),
            Some(1.25)
        );
        r.trace = true;
        r.fail("gate");
        let doc = json::parse(&r.contract_json()).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(
            doc.get("metrics").and_then(Json::as_object).unwrap().len(),
            PER_LAYER.len()
        );
        assert!(json::parse(&r.to_json()).is_ok());
    }
}
