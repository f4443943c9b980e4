//! Lightweight observability for the null-model pipeline.
//!
//! The pipeline's hot loops (the swap sweep, the concurrent-hash probe
//! sequence, edge-skip sampling) cannot afford logging, locks, or
//! allocation. This crate provides the cheapest instrumentation that is
//! still useful for the MCMC diagnostics the literature calls for
//! (acceptance rates, rejection causes, probe lengths, per-phase time):
//!
//! * [`Counter`] — a relaxed `AtomicU64` add.
//! * [`GaugeF64`] — an `f64` stored as atomic bits (last-write-wins).
//! * [`Histogram`] — power-of-two buckets plus count/sum, one relaxed
//!   `fetch_add` pair per record.
//! * [`SpanTimer`] — an RAII guard that adds elapsed nanoseconds to a
//!   counter when dropped; used for the pipeline phases
//!   (probability solve → edge generation → permute → sweep).
//! * [`Metrics`] — the named registry threaded through the pipeline as an
//!   `Arc<Metrics>`, and [`MetricsSnapshot`], its point-in-time copy with a
//!   hand-rolled [`MetricsSnapshot::to_json`].
//!
//! Everything is feature-gated on `enabled` (on by default). With
//! `--no-default-features` every primitive here is a zero-sized type whose
//! methods are empty `#[inline]` bodies, so instrumented code compiles to
//! exactly what it was before instrumentation — verified by the
//! `disabled_is_zero_sized` test and the counting-allocator test in
//! `crates/swap/tests/alloc_free.rs`.
//!
//! Instrumentation is strictly read-only with respect to the computation:
//! it never touches RNG state or alters control flow, so generated graphs
//! are byte-identical with metrics attached, detached, or compiled out.

use std::fmt::Write as _;

mod serve;
pub use serve::{HistogramSnapshot, ServeMetrics, ServeMetricsSnapshot};

/// Number of power-of-two histogram buckets; bucket `i` counts values `v`
/// with `ilog2(max(v,1)) == i`, the last bucket absorbing the tail.
pub const HISTOGRAM_BUCKETS: usize = 32;

#[cfg(feature = "enabled")]
mod imp {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    use crate::HISTOGRAM_BUCKETS;

    /// Monotone event counter (relaxed atomic add).
    #[derive(Debug, Default)]
    pub struct Counter(AtomicU64);

    impl Counter {
        /// Add `n` events.
        #[inline]
        pub fn add(&self, n: u64) {
            self.0.fetch_add(n, Ordering::Relaxed);
        }

        /// Add one event.
        #[inline]
        pub fn incr(&self) {
            self.add(1);
        }

        /// Current value.
        #[inline]
        pub fn get(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }

        /// Start a span whose elapsed nanoseconds are added on drop.
        #[inline]
        pub fn start_span(&self) -> SpanTimer<'_> {
            SpanTimer {
                counter: self,
                start: Instant::now(),
            }
        }
    }

    /// Last-write-wins floating-point gauge (f64 bits in an atomic).
    #[derive(Debug, Default)]
    pub struct GaugeF64(AtomicU64);

    impl GaugeF64 {
        /// Overwrite the gauge.
        #[inline]
        pub fn set(&self, v: f64) {
            self.0.store(v.to_bits(), Ordering::Relaxed);
        }

        /// Current value (0.0 if never set).
        #[inline]
        pub fn get(&self) -> f64 {
            f64::from_bits(self.0.load(Ordering::Relaxed))
        }
    }

    /// Power-of-two-bucketed histogram with exact count and sum.
    #[derive(Debug, Default)]
    pub struct Histogram {
        buckets: [AtomicU64; HISTOGRAM_BUCKETS],
        count: AtomicU64,
        sum: AtomicU64,
    }

    impl Histogram {
        /// Record one observation.
        #[inline]
        pub fn record(&self, v: u64) {
            let idx = (63 - (v | 1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
            self.buckets[idx].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
        }

        /// Number of observations.
        #[inline]
        pub fn count(&self) -> u64 {
            self.count.load(Ordering::Relaxed)
        }

        /// Sum of observations.
        #[inline]
        pub fn sum(&self) -> u64 {
            self.sum.load(Ordering::Relaxed)
        }

        /// Copy of the bucket counts.
        pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
            let mut out = [0u64; HISTOGRAM_BUCKETS];
            for (o, b) in out.iter_mut().zip(&self.buckets) {
                *o = b.load(Ordering::Relaxed);
            }
            out
        }
    }

    /// RAII phase timer: adds elapsed nanoseconds to its counter on drop.
    #[must_use = "a span timer measures until it is dropped"]
    pub struct SpanTimer<'a> {
        counter: &'a Counter,
        start: Instant,
    }

    impl Drop for SpanTimer<'_> {
        #[inline]
        fn drop(&mut self) {
            self.counter
                .add(u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    use crate::HISTOGRAM_BUCKETS;

    /// No-op counter (feature `enabled` is off).
    #[derive(Debug, Default)]
    pub struct Counter;

    impl Counter {
        /// No-op.
        #[inline(always)]
        pub fn add(&self, _n: u64) {}

        /// No-op.
        #[inline(always)]
        pub fn incr(&self) {}

        /// Always zero.
        #[inline(always)]
        pub fn get(&self) -> u64 {
            0
        }

        /// No-op span.
        #[inline(always)]
        pub fn start_span(&self) -> SpanTimer<'_> {
            SpanTimer(std::marker::PhantomData)
        }
    }

    /// No-op gauge (feature `enabled` is off).
    #[derive(Debug, Default)]
    pub struct GaugeF64;

    impl GaugeF64 {
        /// No-op.
        #[inline(always)]
        pub fn set(&self, _v: f64) {}

        /// Always zero.
        #[inline(always)]
        pub fn get(&self) -> f64 {
            0.0
        }
    }

    /// No-op histogram (feature `enabled` is off).
    #[derive(Debug, Default)]
    pub struct Histogram;

    impl Histogram {
        /// No-op.
        #[inline(always)]
        pub fn record(&self, _v: u64) {}

        /// Always zero.
        #[inline(always)]
        pub fn count(&self) -> u64 {
            0
        }

        /// Always zero.
        #[inline(always)]
        pub fn sum(&self) -> u64 {
            0
        }

        /// All zeros.
        #[inline(always)]
        pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
            [0; HISTOGRAM_BUCKETS]
        }
    }

    /// No-op span timer (feature `enabled` is off).
    #[must_use = "a span timer measures until it is dropped"]
    pub struct SpanTimer<'a>(std::marker::PhantomData<&'a Counter>);
}

pub use imp::{Counter, GaugeF64, Histogram, SpanTimer};

/// The named metric registry for one pipeline run. Share it as an
/// `Arc<Metrics>`; every field is individually thread-safe.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Completed swap sweeps.
    pub swap_sweeps: Counter,
    /// Swap pairs proposed (one per dart pair per sweep).
    pub swap_proposals: Counter,
    /// Proposals committed (edges actually rewired).
    pub swap_accepts: Counter,
    /// Rejected: replacement edge would be a self-loop.
    pub swap_reject_self_loop: Counter,
    /// Rejected: the two replacement edges are identical.
    pub swap_reject_duplicate: Counter,
    /// Rejected: a replacement edge already exists in the graph.
    pub swap_reject_exists: Counter,
    /// Rejected: trailing dart had no partner (odd edge count).
    pub swap_reject_singleton: Counter,
    /// Rejected: lost the min-index claim race at commit time.
    pub swap_reject_conflict: Counter,
    /// Bounded grow-and-retry recoveries taken.
    pub swap_grow_retries: Counter,
    /// Serial-replay fallbacks taken.
    pub swap_serial_fallbacks: Counter,
    /// Probe lengths of successful concurrent-hash insertions. Behind an
    /// `Arc` so hash tables can hold a direct handle to it (see
    /// `conchash::ShardedEpochHashSet::set_probe_histogram` and
    /// [`Metrics::probe_handle`]). Tables record a deterministic 1-in-64
    /// sample of insertions (selected by key hash): the histogram is a
    /// distribution estimate, and an unconditional bucket increment per
    /// probe is exactly the random atomic write the sweep's memory-bound
    /// hot path cannot afford. Counters elsewhere in this registry stay
    /// exact.
    #[cfg(feature = "enabled")]
    pub probe_lengths: std::sync::Arc<Histogram>,
    /// Probe-length no-op (feature `enabled` is off). Kept inline rather
    /// than behind an `Arc` so the disabled registry stays zero-sized;
    /// [`Metrics::probe_handle`] hands tables a fresh no-op handle instead.
    #[cfg(not(feature = "enabled"))]
    pub probe_lengths: Histogram,
    /// Edges emitted by the edge-skip sampler.
    pub edgeskip_edges: Counter,
    /// Candidate pairs skipped over by the edge-skip sampler.
    pub edgeskip_skips: Counter,
    /// Sinkhorn refinement rounds run.
    pub sinkhorn_rounds: Counter,
    /// Final Sinkhorn max relative residual.
    pub sinkhorn_residual: GaugeF64,
    /// Fault events appended to the event log.
    pub fault_events: Counter,
    /// Checkpoint snapshots written durably.
    pub ckpt_writes: Counter,
    /// Checkpoint snapshots loaded and validated.
    pub ckpt_loads: Counter,
    /// Bytes of checkpoint payload written (header included).
    pub ckpt_bytes_written: Counter,
    /// Nanoseconds spent encoding + atomically persisting checkpoints.
    pub ckpt_write_ns: Counter,
    /// Nanoseconds spent reading + validating checkpoints.
    pub ckpt_load_ns: Counter,
    /// Storage-fault retries spent (and recovered) by the bounded
    /// write-side retry policy.
    pub storage_retries: Counter,
    /// Storage faults that persisted through the retry policy and
    /// surfaced as typed `storage_*` errors.
    pub storage_faults: Counter,
    /// Nanoseconds in the probability-solve phase.
    pub phase_probabilities_ns: Counter,
    /// Nanoseconds in the edge-generation (edge-skip) phase.
    pub phase_edge_generation_ns: Counter,
    /// Nanoseconds in the dart-permutation phase (inside sweeps).
    pub phase_permute_ns: Counter,
    /// Nanoseconds in the swap-sweep phase.
    pub phase_sweep_ns: Counter,
}

impl Metrics {
    /// A fresh, all-zero registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A shareable handle to the probe-length histogram, for concurrent
    /// hash tables to record into directly. Disabled, this allocates a
    /// fresh no-op handle — paid once per table (re)wiring, never per
    /// recorded operation.
    pub fn probe_handle(&self) -> std::sync::Arc<Histogram> {
        #[cfg(feature = "enabled")]
        {
            std::sync::Arc::clone(&self.probe_lengths)
        }
        #[cfg(not(feature = "enabled"))]
        {
            std::sync::Arc::new(Histogram)
        }
    }

    /// Point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            swap_sweeps: self.swap_sweeps.get(),
            swap_proposals: self.swap_proposals.get(),
            swap_accepts: self.swap_accepts.get(),
            swap_reject_self_loop: self.swap_reject_self_loop.get(),
            swap_reject_duplicate: self.swap_reject_duplicate.get(),
            swap_reject_exists: self.swap_reject_exists.get(),
            swap_reject_singleton: self.swap_reject_singleton.get(),
            swap_reject_conflict: self.swap_reject_conflict.get(),
            swap_grow_retries: self.swap_grow_retries.get(),
            swap_serial_fallbacks: self.swap_serial_fallbacks.get(),
            probe_count: self.probe_lengths.count(),
            probe_sum: self.probe_lengths.sum(),
            probe_buckets: self.probe_lengths.buckets(),
            edgeskip_edges: self.edgeskip_edges.get(),
            edgeskip_skips: self.edgeskip_skips.get(),
            sinkhorn_rounds: self.sinkhorn_rounds.get(),
            sinkhorn_residual: self.sinkhorn_residual.get(),
            fault_events: self.fault_events.get(),
            ckpt_writes: self.ckpt_writes.get(),
            ckpt_loads: self.ckpt_loads.get(),
            ckpt_bytes_written: self.ckpt_bytes_written.get(),
            ckpt_write_ns: self.ckpt_write_ns.get(),
            ckpt_load_ns: self.ckpt_load_ns.get(),
            storage_retries: self.storage_retries.get(),
            storage_faults: self.storage_faults.get(),
            phase_probabilities_ns: self.phase_probabilities_ns.get(),
            phase_edge_generation_ns: self.phase_edge_generation_ns.get(),
            phase_permute_ns: self.phase_permute_ns.get(),
            phase_sweep_ns: self.phase_sweep_ns.get(),
        }
    }
}

/// Point-in-time copy of a [`Metrics`] registry, serializable to JSON.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// See [`Metrics::swap_sweeps`].
    pub swap_sweeps: u64,
    /// See [`Metrics::swap_proposals`].
    pub swap_proposals: u64,
    /// See [`Metrics::swap_accepts`].
    pub swap_accepts: u64,
    /// See [`Metrics::swap_reject_self_loop`].
    pub swap_reject_self_loop: u64,
    /// See [`Metrics::swap_reject_duplicate`].
    pub swap_reject_duplicate: u64,
    /// See [`Metrics::swap_reject_exists`].
    pub swap_reject_exists: u64,
    /// See [`Metrics::swap_reject_singleton`].
    pub swap_reject_singleton: u64,
    /// See [`Metrics::swap_reject_conflict`].
    pub swap_reject_conflict: u64,
    /// See [`Metrics::swap_grow_retries`].
    pub swap_grow_retries: u64,
    /// See [`Metrics::swap_serial_fallbacks`].
    pub swap_serial_fallbacks: u64,
    /// Successful insertions recorded in the probe histogram.
    pub probe_count: u64,
    /// Sum of recorded probe lengths.
    pub probe_sum: u64,
    /// Power-of-two probe-length buckets.
    pub probe_buckets: [u64; HISTOGRAM_BUCKETS],
    /// See [`Metrics::edgeskip_edges`].
    pub edgeskip_edges: u64,
    /// See [`Metrics::edgeskip_skips`].
    pub edgeskip_skips: u64,
    /// See [`Metrics::sinkhorn_rounds`].
    pub sinkhorn_rounds: u64,
    /// See [`Metrics::sinkhorn_residual`].
    pub sinkhorn_residual: f64,
    /// See [`Metrics::fault_events`].
    pub fault_events: u64,
    /// See [`Metrics::ckpt_writes`].
    pub ckpt_writes: u64,
    /// See [`Metrics::ckpt_loads`].
    pub ckpt_loads: u64,
    /// See [`Metrics::ckpt_bytes_written`].
    pub ckpt_bytes_written: u64,
    /// See [`Metrics::ckpt_write_ns`].
    pub ckpt_write_ns: u64,
    /// See [`Metrics::ckpt_load_ns`].
    pub ckpt_load_ns: u64,
    /// See [`Metrics::storage_retries`].
    pub storage_retries: u64,
    /// See [`Metrics::storage_faults`].
    pub storage_faults: u64,
    /// See [`Metrics::phase_probabilities_ns`].
    pub phase_probabilities_ns: u64,
    /// See [`Metrics::phase_edge_generation_ns`].
    pub phase_edge_generation_ns: u64,
    /// See [`Metrics::phase_permute_ns`].
    pub phase_permute_ns: u64,
    /// See [`Metrics::phase_sweep_ns`].
    pub phase_sweep_ns: u64,
}

/// Render an `f64` as a JSON number (`null` when not finite).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl MetricsSnapshot {
    /// Total rejected proposals across all causes.
    pub fn swap_rejects_total(&self) -> u64 {
        self.swap_reject_self_loop
            + self.swap_reject_duplicate
            + self.swap_reject_exists
            + self.swap_reject_singleton
            + self.swap_reject_conflict
    }

    /// The counters that are deterministic functions of the run (everything
    /// except wall-clock phase timings and checkpoint activity, whose
    /// cadence may be wall-clock driven), for equality checks across runs.
    pub fn deterministic_part(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            phase_probabilities_ns: 0,
            phase_edge_generation_ns: 0,
            phase_permute_ns: 0,
            phase_sweep_ns: 0,
            ckpt_writes: 0,
            ckpt_loads: 0,
            ckpt_bytes_written: 0,
            ckpt_write_ns: 0,
            ckpt_load_ns: 0,
            storage_retries: 0,
            storage_faults: 0,
            ..self.clone()
        }
    }

    /// Serialize to pretty-printed JSON (hand-rolled; no serde in this
    /// workspace's offline environment).
    pub fn to_json(&self) -> String {
        let mut j = String::with_capacity(1024);
        j.push_str("{\n  \"schema\": \"metrics_snapshot_v1\",\n");
        let _ = writeln!(j, "  \"swap\": {{");
        let _ = writeln!(j, "    \"sweeps\": {},", self.swap_sweeps);
        let _ = writeln!(j, "    \"proposals\": {},", self.swap_proposals);
        let _ = writeln!(j, "    \"accepts\": {},", self.swap_accepts);
        let _ = writeln!(j, "    \"rejects\": {{");
        let _ = writeln!(j, "      \"self_loop\": {},", self.swap_reject_self_loop);
        let _ = writeln!(j, "      \"duplicate\": {},", self.swap_reject_duplicate);
        let _ = writeln!(j, "      \"exists\": {},", self.swap_reject_exists);
        let _ = writeln!(j, "      \"singleton\": {},", self.swap_reject_singleton);
        let _ = writeln!(j, "      \"conflict\": {},", self.swap_reject_conflict);
        let _ = writeln!(j, "      \"total\": {}", self.swap_rejects_total());
        let _ = writeln!(j, "    }},");
        let _ = writeln!(j, "    \"grow_retries\": {},", self.swap_grow_retries);
        let _ = writeln!(
            j,
            "    \"serial_fallbacks\": {}",
            self.swap_serial_fallbacks
        );
        let _ = writeln!(j, "  }},");
        let _ = writeln!(j, "  \"probe\": {{");
        let _ = writeln!(j, "    \"count\": {},", self.probe_count);
        let _ = writeln!(j, "    \"sum\": {},", self.probe_sum);
        let mean = if self.probe_count > 0 {
            self.probe_sum as f64 / self.probe_count as f64
        } else {
            0.0
        };
        let _ = writeln!(j, "    \"mean\": {},", json_f64(mean));
        let last_nonzero = self
            .probe_buckets
            .iter()
            .rposition(|&b| b != 0)
            .map_or(0, |i| i + 1);
        let rendered: Vec<String> = self.probe_buckets[..last_nonzero]
            .iter()
            .map(|b| b.to_string())
            .collect();
        let _ = writeln!(j, "    \"buckets_pow2\": [{}]", rendered.join(", "));
        let _ = writeln!(j, "  }},");
        let _ = writeln!(j, "  \"edgeskip\": {{");
        let _ = writeln!(j, "    \"edges\": {},", self.edgeskip_edges);
        let _ = writeln!(j, "    \"skips\": {}", self.edgeskip_skips);
        let _ = writeln!(j, "  }},");
        let _ = writeln!(j, "  \"sinkhorn\": {{");
        let _ = writeln!(j, "    \"rounds\": {},", self.sinkhorn_rounds);
        let _ = writeln!(j, "    \"residual\": {}", json_f64(self.sinkhorn_residual));
        let _ = writeln!(j, "  }},");
        let _ = writeln!(j, "  \"fault_events\": {},", self.fault_events);
        let _ = writeln!(j, "  \"ckpt\": {{");
        let _ = writeln!(j, "    \"writes\": {},", self.ckpt_writes);
        let _ = writeln!(j, "    \"loads\": {},", self.ckpt_loads);
        let _ = writeln!(j, "    \"bytes_written\": {},", self.ckpt_bytes_written);
        let _ = writeln!(j, "    \"write_ns\": {},", self.ckpt_write_ns);
        let _ = writeln!(j, "    \"load_ns\": {}", self.ckpt_load_ns);
        let _ = writeln!(j, "  }},");
        let _ = writeln!(j, "  \"storage\": {{");
        let _ = writeln!(j, "    \"retries\": {},", self.storage_retries);
        let _ = writeln!(j, "    \"faults\": {}", self.storage_faults);
        let _ = writeln!(j, "  }},");
        let _ = writeln!(j, "  \"phases_ns\": {{");
        let _ = writeln!(j, "    \"probabilities\": {},", self.phase_probabilities_ns);
        let _ = writeln!(
            j,
            "    \"edge_generation\": {},",
            self.phase_edge_generation_ns
        );
        let _ = writeln!(j, "    \"permute\": {},", self.phase_permute_ns);
        let _ = writeln!(j, "    \"sweep\": {}", self.phase_sweep_ns);
        let _ = writeln!(j, "  }}");
        j.push('}');
        j.push('\n');
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_read() {
        let m = Metrics::new();
        m.swap_proposals.add(10);
        m.swap_accepts.incr();
        m.sinkhorn_residual.set(0.125);
        let snap = m.snapshot();
        #[cfg(feature = "enabled")]
        {
            assert_eq!(snap.swap_proposals, 10);
            assert_eq!(snap.swap_accepts, 1);
            assert_eq!(snap.sinkhorn_residual, 0.125);
        }
        #[cfg(not(feature = "enabled"))]
        {
            assert_eq!(snap, MetricsSnapshot::default());
        }
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn histogram_buckets_by_power_of_two() {
        let h = Histogram::default();
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(4); // bucket 2
        h.record(1 << 20); // bucket 20
        let b = h.buckets();
        assert_eq!(b[0], 1);
        assert_eq!(b[1], 2);
        assert_eq!(b[2], 1);
        assert_eq!(b[20], 1);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1 + 2 + 3 + 4 + (1 << 20));
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn histogram_zero_and_huge_values_stay_in_range() {
        let h = Histogram::default();
        h.record(0); // clamps into bucket 0
        h.record(u64::MAX); // clamps into the last bucket
        let b = h.buckets();
        assert_eq!(b[0], 1);
        assert_eq!(b[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn counters_sum_across_threads() {
        use std::sync::Arc;
        let m = Arc::new(Metrics::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        m.swap_proposals.incr();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker thread panicked");
        }
        assert_eq!(m.snapshot().swap_proposals, 80_000);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn span_timer_accumulates() {
        let c = Counter::default();
        {
            let _t = c.start_span();
            std::hint::black_box(());
        }
        // Even a trivial span takes nonzero time to measure.
        assert!(c.get() > 0 || cfg!(miri));
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_is_zero_sized() {
        assert_eq!(std::mem::size_of::<Counter>(), 0);
        assert_eq!(std::mem::size_of::<GaugeF64>(), 0);
        assert_eq!(std::mem::size_of::<Histogram>(), 0);
        assert_eq!(std::mem::size_of::<Metrics>(), 0);
        let m = Metrics::new();
        m.swap_proposals.add(100);
        m.probe_lengths.record(5);
        let _t = m.phase_sweep_ns.start_span();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let m = Metrics::new();
        m.swap_proposals.add(500_000);
        m.swap_accepts.add(400_000);
        m.swap_reject_exists.add(100_000);
        m.probe_lengths.record(1);
        m.probe_lengths.record(2);
        m.sinkhorn_residual.set(1e-7);
        let json = m.snapshot().to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        for key in [
            "\"schema\"",
            "\"swap\"",
            "\"proposals\"",
            "\"accepts\"",
            "\"rejects\"",
            "\"probe\"",
            "\"edgeskip\"",
            "\"sinkhorn\"",
            "\"fault_events\"",
            "\"ckpt\"",
            "\"phases_ns\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // Balanced braces / brackets (cheap well-formedness proxy).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn snapshot_rejects_total_sums_causes() {
        let snap = MetricsSnapshot {
            swap_reject_self_loop: 1,
            swap_reject_duplicate: 2,
            swap_reject_exists: 3,
            swap_reject_singleton: 4,
            swap_reject_conflict: 5,
            ..Default::default()
        };
        assert_eq!(snap.swap_rejects_total(), 15);
    }

    #[test]
    fn deterministic_part_zeroes_timings() {
        let snap = MetricsSnapshot {
            swap_proposals: 7,
            phase_sweep_ns: 12345,
            phase_permute_ns: 9,
            ckpt_writes: 3,
            ckpt_write_ns: 777,
            ckpt_bytes_written: 4096,
            ..Default::default()
        };
        let det = snap.deterministic_part();
        assert_eq!(det.swap_proposals, 7);
        assert_eq!(det.phase_sweep_ns, 0);
        assert_eq!(det.phase_permute_ns, 0);
        assert_eq!(det.ckpt_writes, 0);
        assert_eq!(det.ckpt_write_ns, 0);
        assert_eq!(det.ckpt_bytes_written, 0);
    }
}
