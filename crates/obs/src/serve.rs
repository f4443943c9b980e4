//! Server-side metrics for the ensemble service (`crates/serve`).
//!
//! Same philosophy as the pipeline registry in the crate root: relaxed
//! atomics only, feature-gated to zero-sized no-ops with
//! `--no-default-features`, and a hand-rolled JSON snapshot so the
//! `/metrics` endpoint needs no serializer dependency.
//!
//! The registry is split three ways, mirroring the control plane:
//!
//! * **per-endpoint counters** — one per route, plus `http_*` response
//!   class totals, so a scrape can see which routes carry the traffic and
//!   which fraction is shed;
//! * **per-outcome job counters** — accepted / completed / failed /
//!   cancelled / resumed / drained: the full life-cycle accounting the
//!   chaos tests assert over (accepted = completed + failed + cancelled +
//!   in-flight, with drained jobs re-entering as resumed);
//! * **load signals** — admission-queue depth gauge, a request-latency
//!   histogram and one histogram per request phase (power-of-two
//!   microsecond buckets; exact percentiles come from the bench harness,
//!   which records per-request latencies client-side).

use std::fmt::Write as _;

use crate::{json_f64, Counter, GaugeF64, Histogram, HISTOGRAM_BUCKETS};

/// Metric registry for one server process. Share as `Arc<ServeMetrics>`;
/// every field is individually thread-safe.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// HTTP requests fully parsed (any route).
    pub http_requests: Counter,
    /// Responses with a 2xx status.
    pub http_2xx: Counter,
    /// Responses with a 4xx status.
    pub http_4xx: Counter,
    /// Responses with a 5xx status (including typed `overloaded` 503s).
    pub http_5xx: Counter,
    /// Connections dropped before a request could be parsed (malformed,
    /// oversized, or disconnected mid-header).
    pub http_parse_failures: Counter,
    /// `accept` calls that failed (EMFILE, ENFILE, ECONNABORTED, ...); the
    /// acceptor backs off 10 ms after each.
    pub http_accept_errors: Counter,

    /// `POST /jobs` requests.
    pub ep_submit: Counter,
    /// `GET /jobs/<id>` requests.
    pub ep_status: Counter,
    /// `GET /jobs/<id>/samples/<k>` requests.
    pub ep_sample: Counter,
    /// `GET /jobs/<id>/stream` requests.
    pub ep_stream: Counter,
    /// `POST /jobs/<id>/cancel` requests.
    pub ep_cancel: Counter,
    /// `GET /metrics` requests.
    pub ep_metrics: Counter,
    /// `GET /healthz` requests.
    pub ep_healthz: Counter,
    /// `POST /admin/drain` requests.
    pub ep_drain: Counter,
    /// Requests for routes that do not exist.
    pub ep_unknown: Counter,

    /// Jobs admitted past the bounded queue (persisted before the 202).
    pub jobs_accepted: Counter,
    /// Submissions refused with a typed `overloaded` response.
    pub jobs_shed: Counter,
    /// Jobs whose every sample completed.
    pub jobs_completed: Counter,
    /// Jobs terminated by a `GenError` (budget, table-full, …).
    pub jobs_failed: Counter,
    /// Jobs terminated by an explicit cancel.
    pub jobs_cancelled: Counter,
    /// Jobs re-admitted from disk after a restart.
    pub jobs_resumed: Counter,
    /// Jobs checkpointed (not finished) during graceful drain.
    pub jobs_drained: Counter,
    /// Ensemble samples written durably.
    pub samples_written: Counter,
    /// Mixing workers whose panic was caught at the job boundary
    /// (the job landed as a typed `job_failed` terminal status).
    pub jobs_panicked: Counter,
    /// Ensemble-member re-runs after a transient storage failure.
    pub member_retries: Counter,
    /// Submissions refused with a typed `storage_exhausted` response
    /// while the server was in ENOSPC-degraded mode.
    pub jobs_shed_storage: Counter,

    /// Admission-queue depth at last enqueue/dequeue.
    pub queue_depth: GaugeF64,
    /// Request handling latency, microseconds: a handler's pop of the
    /// connection to the end of the response write (parse + handle +
    /// write below).
    pub request_latency_us: Histogram,
    /// Accept to a handler's pop of the connection, microseconds.
    pub phase_queue_us: Histogram,
    /// Reading and parsing the request, microseconds.
    pub phase_parse_us: Histogram,
    /// Routing and endpoint work, the response write excluded,
    /// microseconds.
    pub phase_handle_us: Histogram,
    /// A submission's durable persistence (job directory, `spec.json`,
    /// `input.txt`), microseconds; part of handle.
    pub phase_persist_us: Histogram,
    /// Writing the response, microseconds (a stream's whole body,
    /// member waits included).
    pub phase_write_us: Histogram,
}

impl ServeMetrics {
    /// A fresh, all-zero registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Point-in-time copy of every metric.
    pub fn snapshot(&self) -> ServeMetricsSnapshot {
        ServeMetricsSnapshot {
            http_requests: self.http_requests.get(),
            http_2xx: self.http_2xx.get(),
            http_4xx: self.http_4xx.get(),
            http_5xx: self.http_5xx.get(),
            http_parse_failures: self.http_parse_failures.get(),
            http_accept_errors: self.http_accept_errors.get(),
            ep_submit: self.ep_submit.get(),
            ep_status: self.ep_status.get(),
            ep_sample: self.ep_sample.get(),
            ep_stream: self.ep_stream.get(),
            ep_cancel: self.ep_cancel.get(),
            ep_metrics: self.ep_metrics.get(),
            ep_healthz: self.ep_healthz.get(),
            ep_drain: self.ep_drain.get(),
            ep_unknown: self.ep_unknown.get(),
            jobs_accepted: self.jobs_accepted.get(),
            jobs_shed: self.jobs_shed.get(),
            jobs_completed: self.jobs_completed.get(),
            jobs_failed: self.jobs_failed.get(),
            jobs_cancelled: self.jobs_cancelled.get(),
            jobs_resumed: self.jobs_resumed.get(),
            jobs_drained: self.jobs_drained.get(),
            samples_written: self.samples_written.get(),
            jobs_panicked: self.jobs_panicked.get(),
            member_retries: self.member_retries.get(),
            jobs_shed_storage: self.jobs_shed_storage.get(),
            fault_injected_total: 0,
            fault_dropped_events: 0,
            fault_by_kind: Vec::new(),
            queue_depth: self.queue_depth.get(),
            latency_count: self.request_latency_us.count(),
            latency_sum_us: self.request_latency_us.sum(),
            latency_buckets: self.request_latency_us.buckets(),
            phase_queue_us: HistogramSnapshot::of(&self.phase_queue_us),
            phase_parse_us: HistogramSnapshot::of(&self.phase_parse_us),
            phase_handle_us: HistogramSnapshot::of(&self.phase_handle_us),
            phase_persist_us: HistogramSnapshot::of(&self.phase_persist_us),
            phase_write_us: HistogramSnapshot::of(&self.phase_write_us),
        }
    }
}

/// Point-in-time copy of one [`Histogram`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of the observations.
    pub sum: u64,
    /// Power-of-two buckets.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    fn of(h: &Histogram) -> Self {
        Self {
            count: h.count(),
            sum: h.sum(),
            buckets: h.buckets(),
        }
    }
}

/// The buckets up to the last non-zero one, as a JSON array body.
fn pow2_buckets_json(buckets: &[u64]) -> String {
    let len = buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
    let rendered: Vec<String> = buckets[..len].iter().map(u64::to_string).collect();
    rendered.join(", ")
}

/// Point-in-time copy of a [`ServeMetrics`] registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeMetricsSnapshot {
    /// See [`ServeMetrics::http_requests`].
    pub http_requests: u64,
    /// See [`ServeMetrics::http_2xx`].
    pub http_2xx: u64,
    /// See [`ServeMetrics::http_4xx`].
    pub http_4xx: u64,
    /// See [`ServeMetrics::http_5xx`].
    pub http_5xx: u64,
    /// See [`ServeMetrics::http_parse_failures`].
    pub http_parse_failures: u64,
    /// See [`ServeMetrics::http_accept_errors`].
    pub http_accept_errors: u64,
    /// See [`ServeMetrics::ep_submit`].
    pub ep_submit: u64,
    /// See [`ServeMetrics::ep_status`].
    pub ep_status: u64,
    /// See [`ServeMetrics::ep_sample`].
    pub ep_sample: u64,
    /// See [`ServeMetrics::ep_stream`].
    pub ep_stream: u64,
    /// See [`ServeMetrics::ep_cancel`].
    pub ep_cancel: u64,
    /// See [`ServeMetrics::ep_metrics`].
    pub ep_metrics: u64,
    /// See [`ServeMetrics::ep_healthz`].
    pub ep_healthz: u64,
    /// See [`ServeMetrics::ep_drain`].
    pub ep_drain: u64,
    /// See [`ServeMetrics::ep_unknown`].
    pub ep_unknown: u64,
    /// See [`ServeMetrics::jobs_accepted`].
    pub jobs_accepted: u64,
    /// See [`ServeMetrics::jobs_shed`].
    pub jobs_shed: u64,
    /// See [`ServeMetrics::jobs_completed`].
    pub jobs_completed: u64,
    /// See [`ServeMetrics::jobs_failed`].
    pub jobs_failed: u64,
    /// See [`ServeMetrics::jobs_cancelled`].
    pub jobs_cancelled: u64,
    /// See [`ServeMetrics::jobs_resumed`].
    pub jobs_resumed: u64,
    /// See [`ServeMetrics::jobs_drained`].
    pub jobs_drained: u64,
    /// See [`ServeMetrics::samples_written`].
    pub samples_written: u64,
    /// See [`ServeMetrics::jobs_panicked`].
    pub jobs_panicked: u64,
    /// See [`ServeMetrics::member_retries`].
    pub member_retries: u64,
    /// See [`ServeMetrics::jobs_shed_storage`].
    pub jobs_shed_storage: u64,
    /// Storage faults injected by a fault VFS (0 in production). Filled
    /// by the server from its VFS at scrape time, not by `snapshot()`.
    pub fault_injected_total: u64,
    /// Fault-log events evicted from the bounded ring.
    pub fault_dropped_events: u64,
    /// Injected faults per kind (`enospc`, `eio`, ...), scrape-time.
    pub fault_by_kind: Vec<(String, u64)>,
    /// See [`ServeMetrics::queue_depth`].
    pub queue_depth: f64,
    /// Requests recorded in the latency histogram.
    pub latency_count: u64,
    /// Sum of recorded latencies, microseconds.
    pub latency_sum_us: u64,
    /// Power-of-two microsecond latency buckets.
    pub latency_buckets: [u64; HISTOGRAM_BUCKETS],
    /// See [`ServeMetrics::phase_queue_us`].
    pub phase_queue_us: HistogramSnapshot,
    /// See [`ServeMetrics::phase_parse_us`].
    pub phase_parse_us: HistogramSnapshot,
    /// See [`ServeMetrics::phase_handle_us`].
    pub phase_handle_us: HistogramSnapshot,
    /// See [`ServeMetrics::phase_persist_us`].
    pub phase_persist_us: HistogramSnapshot,
    /// See [`ServeMetrics::phase_write_us`].
    pub phase_write_us: HistogramSnapshot,
}

impl ServeMetricsSnapshot {
    /// Serialize to pretty-printed JSON (hand-rolled; no serde in this
    /// workspace's offline environment).
    pub fn to_json(&self) -> String {
        let mut j = String::with_capacity(1024);
        j.push_str("{\n  \"schema\": \"serve_metrics_v1\",\n");
        let _ = writeln!(j, "  \"http\": {{");
        let _ = writeln!(j, "    \"requests\": {},", self.http_requests);
        let _ = writeln!(j, "    \"responses_2xx\": {},", self.http_2xx);
        let _ = writeln!(j, "    \"responses_4xx\": {},", self.http_4xx);
        let _ = writeln!(j, "    \"responses_5xx\": {},", self.http_5xx);
        let _ = writeln!(j, "    \"parse_failures\": {},", self.http_parse_failures);
        let _ = writeln!(j, "    \"accept_errors\": {}", self.http_accept_errors);
        let _ = writeln!(j, "  }},");
        let _ = writeln!(j, "  \"endpoints\": {{");
        let _ = writeln!(j, "    \"submit\": {},", self.ep_submit);
        let _ = writeln!(j, "    \"status\": {},", self.ep_status);
        let _ = writeln!(j, "    \"sample\": {},", self.ep_sample);
        let _ = writeln!(j, "    \"stream\": {},", self.ep_stream);
        let _ = writeln!(j, "    \"cancel\": {},", self.ep_cancel);
        let _ = writeln!(j, "    \"metrics\": {},", self.ep_metrics);
        let _ = writeln!(j, "    \"healthz\": {},", self.ep_healthz);
        let _ = writeln!(j, "    \"drain\": {},", self.ep_drain);
        let _ = writeln!(j, "    \"unknown\": {}", self.ep_unknown);
        let _ = writeln!(j, "  }},");
        let _ = writeln!(j, "  \"jobs\": {{");
        let _ = writeln!(j, "    \"accepted\": {},", self.jobs_accepted);
        let _ = writeln!(j, "    \"shed\": {},", self.jobs_shed);
        let _ = writeln!(j, "    \"completed\": {},", self.jobs_completed);
        let _ = writeln!(j, "    \"failed\": {},", self.jobs_failed);
        let _ = writeln!(j, "    \"cancelled\": {},", self.jobs_cancelled);
        let _ = writeln!(j, "    \"resumed\": {},", self.jobs_resumed);
        let _ = writeln!(j, "    \"drained\": {},", self.jobs_drained);
        let _ = writeln!(j, "    \"samples_written\": {},", self.samples_written);
        let _ = writeln!(j, "    \"panicked\": {},", self.jobs_panicked);
        let _ = writeln!(j, "    \"member_retries\": {},", self.member_retries);
        let _ = writeln!(j, "    \"shed_storage\": {}", self.jobs_shed_storage);
        let _ = writeln!(j, "  }},");
        let _ = writeln!(j, "  \"fault_injection\": {{");
        let _ = writeln!(j, "    \"injected_total\": {},", self.fault_injected_total);
        let _ = writeln!(j, "    \"dropped_events\": {},", self.fault_dropped_events);
        let by: Vec<String> = self
            .fault_by_kind
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let _ = writeln!(j, "    \"by_kind\": {{{}}}", by.join(", "));
        let _ = writeln!(j, "  }},");
        let _ = writeln!(j, "  \"queue_depth\": {},", json_f64(self.queue_depth));
        let _ = writeln!(j, "  \"latency_us\": {{");
        let _ = writeln!(j, "    \"count\": {},", self.latency_count);
        let _ = writeln!(j, "    \"sum\": {},", self.latency_sum_us);
        let _ = writeln!(
            j,
            "    \"buckets_pow2\": [{}]",
            pow2_buckets_json(&self.latency_buckets)
        );
        let _ = writeln!(j, "  }},");
        let _ = writeln!(j, "  \"request_phases_us\": {{");
        let phases = [
            ("queue", &self.phase_queue_us),
            ("parse", &self.phase_parse_us),
            ("handle", &self.phase_handle_us),
            ("persist", &self.phase_persist_us),
            ("write", &self.phase_write_us),
        ];
        for (i, (name, h)) in phases.iter().enumerate() {
            let sep = if i + 1 < phases.len() { "," } else { "" };
            let _ = writeln!(
                j,
                "    \"{name}\": {{\"count\": {}, \"sum\": {}, \"buckets_pow2\": [{}]}}{sep}",
                h.count,
                h.sum,
                pow2_buckets_json(&h.buckets)
            );
        }
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
    fn snapshot_reflects_counters() {
        let m = ServeMetrics::new();
        m.http_requests.add(10);
        m.jobs_accepted.add(3);
        m.jobs_shed.add(7);
        m.queue_depth.set(4.0);
        m.request_latency_us.record(100);
        m.http_accept_errors.incr();
        m.phase_write_us.record(6);
        let snap = m.snapshot();
        #[cfg(feature = "enabled")]
        {
            assert_eq!(snap.http_requests, 10);
            assert_eq!(snap.http_accept_errors, 1);
            assert_eq!((snap.phase_write_us.count, snap.phase_write_us.sum), (1, 6));
            assert_eq!(snap.phase_write_us.buckets[2], 1);
            assert_eq!(snap.phase_queue_us, HistogramSnapshot::default());
            assert_eq!(snap.jobs_accepted, 3);
            assert_eq!(snap.jobs_shed, 7);
            assert_eq!(snap.queue_depth, 4.0);
            assert_eq!(snap.latency_count, 1);
        }
        #[cfg(not(feature = "enabled"))]
        {
            assert_eq!(snap, ServeMetricsSnapshot::default());
        }
    }

    #[test]
    fn serve_json_is_well_formed() {
        let m = ServeMetrics::new();
        m.http_requests.add(5);
        m.request_latency_us.record(1);
        m.request_latency_us.record(1 << 12);
        m.phase_persist_us.record(1 << 10);
        let json = m.snapshot().to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        for key in [
            "\"schema\": \"serve_metrics_v1\"",
            "\"http\"",
            "\"endpoints\"",
            "\"jobs\"",
            "\"fault_injection\"",
            "\"queue_depth\"",
            "\"latency_us\"",
            "\"accept_errors\"",
            "\"request_phases_us\"",
            "\"queue\": {\"count\"",
            "\"parse\": {\"count\"",
            "\"handle\": {\"count\"",
            "\"persist\": {\"count\"",
            "\"write\": {\"count\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_serve_registry_is_zero_sized() {
        assert_eq!(std::mem::size_of::<ServeMetrics>(), 0);
    }
}
