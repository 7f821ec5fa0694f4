//! What a run prints: named metrics with units and sample counts, the run
//! fingerprint, and the final one-line JSON result.

use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How many samples it summarises.
    pub samples: usize,
    /// What the number means on this workload.
    pub what: String,
}

/// Shorthand constructor.
pub fn metric(
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
    what: impl Into<String>,
) -> Metric {
    Metric { name, unit, value, samples, what: what.into() }
}

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("work_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A layer
/// a workload never calls reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("vc_env.encode_us", "us"),
    ("vc_env.step_us", "us"),
    ("vc_rl.fleet_forward_us", "us"),
    ("vc_rl.fleet_sample_us", "us"),
    ("vc_rl.sample_us", "us"),
    ("vc_rl.ppo_grads_ms", "ms"),
    ("vc_rl.gae_us", "us"),
    ("drl_cews.rollout_ms", "ms"),
    ("vc_rl.gather_ms", "ms"),
    ("drl_cews.apply_ms", "ms"),
    ("vc_rl.broadcast_ms", "ms"),
    ("vc_rl.respawns", "count"),
    ("vc_rl.quarantined", "count"),
    ("vc_curiosity.reward_us", "us"),
    ("vc_curiosity.grads_ms", "ms"),
    ("drl_cews.ckpt_ms", "ms"),
    ("drl_cews.make_env_us", "us"),
    ("vc_serve.snapshot_us", "us"),
    ("vc_serve.codec_us", "us"),
    ("vc_serve.ping_rtt_ms_p50", "ms"),
    ("vc_serve.queue_wait_ms_p50", "ms"),
    ("vc_serve.queue_wait_ms_p99", "ms"),
    ("vc_serve.batch_size_mean", "requests"),
    ("vc_serve.overtaken_frac", "ratio"),
    ("vc_serve.degraded_frac", "ratio"),
    ("vc_serve.shed_frac", "ratio"),
    ("vc_baselines.greedy_batches", "count"),
    ("serve.generator_late_ms_p99", "ms"),
    ("fleet.step_ms_p99", "ms"),
    ("vc_nn.gemm_calls", "calls/op"),
    ("vc_nn.gemm_gflop", "GFLOP/op"),
    ("vc_nn.arena_hit_frac", "ratio"),
    ("vc_nn.arena_held_mb", "MiB"),
    ("trace_overhead_frac", "ratio"),
    ("unaccounted_frac", "ratio"),
    ("failed_frac", "ratio"),
];

/// Orders `measured` as `catalogue` lists it, adding a 0 for every metric
/// the workload does not exercise. Fails on a name or unit not listed.
pub fn complete(
    catalogue: &[(&'static str, &'static str)],
    measured: Vec<Metric>,
) -> Result<Vec<Metric>, String> {
    for m in &measured {
        if !catalogue.contains(&(m.name, m.unit)) {
            return Err(format!("metric {} [{}] is not in the catalogue", m.name, m.unit));
        }
    }
    Ok(catalogue
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| metric(name, unit, 0.0, 0, "not exercised by this workload"))
        })
        .collect())
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (episodes, steps or requests).
    pub attempted: u64,
    /// Operations that failed their output check.
    pub failed: u64,
    /// Failed output checks, one line each; empty means correct.
    pub problems: Vec<String>,
    /// Metrics of the chosen mode (end-to-end untraced, per-layer traced).
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (digests, accounting residuals).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Appends `v` as a JSON string literal.
fn json_str(out: &mut String, v: &str) {
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` as a JSON number with every digit Rust's shortest
/// round-trip form gives (non-finite values, which JSON cannot hold,
/// become `null`).
fn json_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Renders the final result line.
pub fn result_json(outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.problems.is_empty(),
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(&mut out, m.name);
        out.push_str(": {\"value\": ");
        json_num(&mut out, m.value);
        out.push_str(", \"unit\": ");
        json_str(&mut out, m.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// Renders a flat JSON object of string fields.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(&mut out, k);
        out.push_str(": ");
        json_str(&mut out, v);
    }
    out.push('}');
    out
}

/// The machine and build a run came from, so a run on a loaded or
/// different box is visible next to its numbers.
pub fn fingerprint(seed: u64) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into());
    let simd = if vc_nn::ops::gemm::simd_kernel_active() { "avx2" } else { "scalar" };
    vec![
        ("nproc", nproc.to_string()),
        ("loadavg_1m", load),
        ("simd_kernel", simd.into()),
        ("target_features", detected_target_features()),
        ("git_rev", git_rev()),
        ("seed", seed.to_string()),
    ]
}

/// The CPU features the GEMM kernels care about, as detected at run time.
fn detected_target_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut feats = Vec::new();
        if std::arch::is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            feats.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            feats.push("avx512f");
        }
        if feats.is_empty() {
            "none".into()
        } else {
            feats.join(",")
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "non-x86".into()
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Bytes parked in the tensor arenas of all threads, in MiB.
pub fn arena_held_mib() -> f64 {
    vc_nn::arena::arena_stats().held_bytes as f64 / (1024.0 * 1024.0)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogues here and the metric lists in `BENCHMARK.json` are one
    /// contract; a name or unit changed on one side alone fails here.
    #[test]
    fn catalogues_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(serde::Value::as_seq)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(serde::Value::as_str).expect(f).to_owned();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> =
                catalogue.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn complete_fills_unexercised_layers_and_rejects_strangers() {
        let got = complete(PER_LAYER, vec![metric("failed_frac", "ratio", 0.5, 4, "x")])
            .expect("known metric");
        assert_eq!(got.len(), PER_LAYER.len());
        assert_eq!(got.last().map(|m| m.value), Some(0.5));
        assert_eq!(got[0].value, 0.0);
        assert!(complete(PER_LAYER, vec![metric("nope", "s", 1.0, 1, "")]).is_err());
        assert!(complete(PER_LAYER, vec![metric("failed_frac", "s", 1.0, 1, "")]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome { attempted: 3, ..Outcome::default() };
        o.metrics.push(metric("setup_s", "s", 0.125, 5, "x"));
        o.metrics.push(metric("op_ms_p50", "ms", 1.0 / 3.0, 3, "y"));
        assert_eq!(
            result_json(&o),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}, \
             \"op_ms_p50\": {\"value\": 0.3333333333333333, \"unit\": \"ms\"}}}"
        );
        o.check(false, || "bad".into());
        assert!(result_json(&o).starts_with("{\"correct\": false"));
    }
}
