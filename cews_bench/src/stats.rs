//! The benchmark's own arithmetic: the percentile rule, open-loop
//! latency measured from due times, the self-time ledger, and digests.

use std::collections::VecDeque;

/// A tail percentile is reported only when at least this many samples lie
/// beyond it, so one outlier cannot be the whole tail.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the counts that make it trustworthy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample value at the percentile.
    pub value: f64,
    /// Number of samples it was taken from.
    pub samples: usize,
    /// Number of samples ranked strictly above it.
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (0 < q < 100) of `samples`.
///
/// Fails when fewer than [`MIN_BEYOND`] samples rank above the chosen one:
/// the run was too short to report that percentile.
pub fn percentile(samples: &[f64], q: f64) -> Result<Percentile, String> {
    let n = samples.len();
    if n == 0 {
        return Err(format!("p{q} of an empty sample"));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q / 100.0 * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    let beyond = n - 1 - idx;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{q} of {n} samples has {beyond} beyond it; the rule needs {MIN_BEYOND}"
        ));
    }
    Ok(Percentile { value: sorted[idx], samples: n, beyond })
}

/// The median over windows (repetitions, or spans of a run) of each
/// window's percentile `q`, each under the ten-beyond rule. A burst of
/// interference from outside the process moves one window's tail, not the
/// median of many.
pub fn windowed_percentile(windows: &[Vec<f64>], q: f64) -> Result<Percentile, String> {
    let per: Vec<Percentile> =
        windows.iter().map(|w| percentile(w, q)).collect::<Result<_, _>>()?;
    let values: Vec<f64> = per.iter().map(|p| p.value).collect();
    Ok(Percentile {
        value: median(&values),
        samples: windows.iter().map(Vec::len).sum(),
        beyond: per.iter().map(|p| p.beyond).min().unwrap_or(0),
    })
}

/// Median of a non-empty sample (mean of the middle pair when even); no
/// tail rule, for small sets such as repeated set-up times.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// One answered request of an open loop, in milliseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Answered {
    /// When the request was due, in seconds.
    pub due_s: f64,
    /// Reply time minus due time: includes any wait the generator or
    /// earlier requests imposed.
    pub latency_ms: f64,
    /// Send time minus due time: how late the generator ran.
    pub late_ms: f64,
    /// Whether a later request on the connection had already been sent
    /// when this reply arrived.
    pub overtaken: bool,
}

/// Requests sent on one connection and not yet answered, in send order.
///
/// The daemon answers each connection's requests in order, so a reply must
/// match the oldest outstanding id. Latency runs from the request's *due*
/// time, never its send time: a reply that stalls delays every request
/// queued behind it, and a generator that falls behind does not hide that
/// wait by sending later.
#[derive(Debug, Default)]
pub struct InFlight {
    queue: VecDeque<(u64, f64, f64)>,
}

impl InFlight {
    /// Records that request `id`, due at `due_s`, went out at `sent_s`.
    pub fn sent(&mut self, id: u64, due_s: f64, sent_s: f64) {
        self.queue.push_back((id, due_s, sent_s));
    }

    /// Matches a reply for `id` received at `at_s` to the oldest request.
    pub fn answered(&mut self, id: u64, at_s: f64) -> Result<Answered, String> {
        let Some((want, due, sent)) = self.queue.pop_front() else {
            return Err(format!("reply {id} with no request outstanding"));
        };
        if want != id {
            return Err(format!("reply {id} arrived where {want} was due"));
        }
        Ok(Answered {
            due_s: due,
            latency_ms: (at_s - due) * 1e3,
            late_ms: (sent - due) * 1e3,
            overtaken: self.queue.front().is_some_and(|&(_, _, next_sent)| next_sent <= at_s),
        })
    }
}

/// Index of a node in a [`Ledger`].
pub type NodeId = usize;

struct Node {
    name: &'static str,
    parent: Option<NodeId>,
    layer: bool,
    calls: u64,
    open: f64,
    per_op: Vec<f64>,
}

/// Time spent per operation in a tree of nested calls.
///
/// Each node accumulates the seconds of the calls timed under it during the
/// current operation; [`Ledger::end_op`] closes the operation. A node's
/// *self* time is its own time minus its children's. Nodes flagged as
/// layers are calls into a workspace crate; whatever of the root's time no
/// layer's self time covers is unaccounted.
pub struct Ledger {
    nodes: Vec<Node>,
}

impl Ledger {
    /// A ledger whose root (node 0) is the whole operation.
    pub fn new(root: &'static str) -> Self {
        Ledger {
            nodes: vec![Node {
                name: root,
                parent: None,
                layer: false,
                calls: 0,
                open: 0.0,
                per_op: Vec::new(),
            }],
        }
    }

    /// Adds a node under `parent`; `layer` marks a call into a crate.
    pub fn node(&mut self, parent: NodeId, name: &'static str, layer: bool) -> NodeId {
        self.nodes.push(Node {
            name,
            parent: Some(parent),
            layer,
            calls: 0,
            open: 0.0,
            per_op: Vec::new(),
        });
        self.nodes.len() - 1
    }

    /// Adds one call of `secs` to `id` in the current operation.
    pub fn add(&mut self, id: NodeId, secs: f64) {
        let n = &mut self.nodes[id];
        n.open += secs;
        n.calls += 1;
    }

    /// Runs `f`, adding its wall time to `id`.
    pub fn time<T>(&mut self, id: NodeId, f: impl FnOnce() -> T) -> T {
        let t = std::time::Instant::now();
        let out = f();
        self.add(id, t.elapsed().as_secs_f64());
        out
    }

    /// Closes the current operation.
    pub fn end_op(&mut self) {
        for n in &mut self.nodes {
            n.per_op.push(std::mem::take(&mut n.open));
        }
    }

    /// Operations closed so far.
    pub fn ops(&self) -> usize {
        self.nodes[0].per_op.len()
    }

    /// The node called `name`.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// Self time of `id` in each closed operation, in seconds.
    pub fn self_per_op(&self, id: NodeId) -> Vec<f64> {
        let mut own = self.nodes[id].per_op.clone();
        for child in self.nodes.iter().filter(|n| n.parent == Some(id)) {
            for (o, c) in own.iter_mut().zip(&child.per_op) {
                *o -= c;
            }
        }
        own
    }

    /// Total time of `id` in each closed operation, in seconds.
    pub fn total_per_op(&self, id: NodeId) -> &[f64] {
        &self.nodes[id].per_op
    }

    /// Median self time of one call of `id`, in seconds.
    pub fn self_per_call(&self, id: NodeId) -> f64 {
        let ops = self.ops().max(1) as f64;
        let calls_per_op = (self.nodes[id].calls as f64 / ops).max(1.0);
        median(&self.self_per_op(id)) / calls_per_op
    }

    /// Share of the root's time that no layer's self time covers.
    pub fn unaccounted_frac(&self) -> f64 {
        let root: f64 = self.nodes[0].per_op.iter().sum();
        let layers: f64 = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].layer)
            .map(|i| self.self_per_op(i).iter().sum::<f64>())
            .sum();
        1.0 - layers / root
    }
}

/// FNV-1a over 64-bit words: a digest that repeats exactly for identical
/// outputs and differs for any changed bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a byte string, eight bytes to a word.
    pub fn bytes(&mut self, data: &[u8]) {
        for chunk in data.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    /// Folds the bit patterns of `xs`.
    pub fn f32s(&mut self, xs: &[f32]) {
        for x in xs {
            self.word(u64::from(x.to_bits()));
        }
    }
}

/// SplitMix64: derives independent, reproducible seeds from the run seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&xs, 90.0).expect("100 samples hold a p90");
        assert_eq!(p90, Percentile { value: 90.0, samples: 100, beyond: 10 });
        let err = percentile(&xs, 99.0).expect_err("p99 of 100 has one beyond");
        assert!(err.contains("1 beyond"), "{err}");
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&xs, 99.0).expect("1000 samples hold a p99");
        assert_eq!((p99.value, p99.beyond, p99.samples), (990.0, 10, 1000));
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn windowed_percentile_is_the_median_of_window_tails() {
        let window = |scale: f64| -> Vec<f64> { (1..=100).map(|i| f64::from(i) * scale).collect() };
        // One window hit by a burst: its p90 is 10× the others'.
        let windows = vec![window(1.0), window(10.0), window(1.1)];
        let p = windowed_percentile(&windows, 90.0).expect("each window holds a p90");
        assert!((p.value - 99.0).abs() < 1e-9, "{p:?}");
        assert_eq!((p.samples, p.beyond), (300, 10));
        let short = vec![window(1.0), vec![1.0; 50]];
        assert!(windowed_percentile(&short, 90.0).is_err(), "a short window breaks the rule");
    }

    #[test]
    fn percentile_ignores_input_order() {
        let xs: Vec<f64> = (0..50).map(|i| f64::from((i * 37) % 50)).collect();
        assert_eq!(percentile(&xs, 50.0).map(|p| p.value), Ok(24.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn a_stalled_reply_shows_in_the_latency_of_requests_queued_behind_it() {
        // Requests due every 1 ms on one connection; the daemon serves them
        // in order in 0.2 ms each, except request 2, which stalls for 5 ms.
        let mut in_flight = InFlight::default();
        let mut free_at = 0.0f64;
        let mut out = Vec::new();
        for id in 0..6u64 {
            let due = id as f64 * 1e-3;
            in_flight.sent(id, due, due);
            let service = if id == 2 { 5e-3 } else { 0.2e-3 };
            free_at = free_at.max(due) + service;
            out.push((id, free_at));
        }
        let lat: Vec<f64> = out
            .iter()
            .map(|&(id, at)| in_flight.answered(id, at).expect("in order").latency_ms)
            .collect();
        assert!((lat[1] - 0.2).abs() < 1e-9);
        assert!((lat[2] - 5.0).abs() < 1e-9);
        // Request 3 was due 1 ms after 2 but waited for the stall to end.
        assert!((lat[3] - 4.2).abs() < 1e-9, "{lat:?}");
        assert!((lat[4] - 3.4).abs() < 1e-9, "{lat:?}");
        assert!(lat[5] > 0.2 + 1e-9, "the backlog still shows: {lat:?}");
        assert!(in_flight.answered(9, 1.0).is_err(), "nothing left outstanding");
    }

    #[test]
    fn a_late_send_is_measured_from_its_due_time() {
        let mut in_flight = InFlight::default();
        // The generator stalled and sent 3 ms late; the reply came 0.2 ms
        // after the send.
        in_flight.sent(7, 0.010, 0.013);
        let a = in_flight.answered(7, 0.0132).expect("matches");
        assert!((a.latency_ms - 3.2).abs() < 1e-9);
        assert!((a.late_ms - 3.0).abs() < 1e-9);
        assert!(!a.overtaken);
    }

    #[test]
    fn a_reply_arriving_after_the_next_send_is_overtaken() {
        let mut in_flight = InFlight::default();
        in_flight.sent(1, 0.0, 0.0);
        in_flight.sent(2, 0.002, 0.002);
        assert!(in_flight.answered(1, 0.0021).expect("in order").overtaken);
        assert!(!in_flight.answered(2, 0.0023).expect("in order").overtaken);
    }

    #[test]
    fn replies_must_match_the_oldest_request() {
        let mut in_flight = InFlight::default();
        in_flight.sent(1, 0.0, 0.0);
        in_flight.sent(2, 0.0, 0.0);
        assert!(in_flight.answered(2, 1.0).is_err());
        assert!(in_flight.answered(9, 1.0).is_err(), "nothing outstanding");
    }

    #[test]
    fn self_time_subtracts_children_and_leaves_the_residual() {
        // step = sample (which contains values, which contains encode)
        //      + env step; the rest of the step is loop overhead.
        let mut l = Ledger::new("step");
        let sample = l.node(0, "sample", true);
        let values = l.node(sample, "values", true);
        let encode = l.node(values, "encode", true);
        let step = l.node(0, "env_step", true);
        for k in 0..3 {
            let extra = f64::from(k) * 0.1;
            l.add(0, 10.0 + extra);
            l.add(sample, 6.0);
            l.add(values, 4.0);
            l.add(encode, 1.0);
            l.add(step, 3.0);
            l.add(step, 0.5 + extra);
            l.end_op();
        }
        assert_eq!(l.ops(), 3);
        assert_eq!(l.self_per_op(encode), vec![1.0; 3]);
        assert_eq!(l.self_per_op(values), vec![3.0; 3]);
        assert_eq!(l.self_per_op(sample), vec![2.0; 3]);
        // Two env-step calls per op: the per-call median halves the op's.
        assert!((l.self_per_call(step) - 1.8).abs() < 1e-12);
        // Root self time is the unaccounted residual: 0.5 of every 10+.
        let residual: Vec<f64> = l.self_per_op(0);
        assert!(residual.iter().all(|r| (r - 0.5).abs() < 1e-12), "{residual:?}");
        let want = 1.5 / (30.0 + 0.3);
        assert!((l.unaccounted_frac() - want).abs() < 1e-12);
        assert_eq!(l.find("values"), Some(values));
    }

    #[test]
    fn grouping_nodes_do_not_count_as_accounted() {
        // A phase node that is not a layer: its own overhead is residual.
        let mut l = Ledger::new("episode");
        let phase = l.node(0, "rollout", false);
        let call = l.node(phase, "encode", true);
        l.add(0, 10.0);
        l.add(phase, 9.0);
        l.add(call, 8.0);
        l.end_op();
        assert!((l.unaccounted_frac() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn digest_and_seed_streams_are_stable() {
        let mut a = Digest::default();
        a.f32s(&[1.0, 2.0]);
        let mut b = Digest::default();
        b.f32s(&[1.0, 2.0]);
        assert_eq!(a, b);
        b.f32s(&[0.0]);
        assert_ne!(a, b);
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
        assert_ne!(derive_seed(1, 2), derive_seed(2, 2));
    }
}
