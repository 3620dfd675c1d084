//! Per-session telemetry routing.
//!
//! The telemetry facade is process-global (one sink), but the daemon runs
//! many sessions at once and wants one live-tailable JSONL stream per job.
//! [`RoutingSink`] multiplexes: sink methods run synchronously on the
//! recording thread, so the record's origin is
//! [`citroen_telemetry::current_thread_id`] (spans and events also carry it
//! explicitly), and each session thread registers itself in the shared
//! [`RouteTable`] for the duration of its job.
//!
//! Caveat: records emitted by *worker-pool* threads (per-candidate `compile`
//! spans inside a `batch` sweep) carry the pool thread's id, not the
//! session's, and are dropped — the per-job stream covers the session
//! thread's own spans, counters, and progress events, which is what
//! `citroen-trace tail` renders.
//!
//! The sink optionally also feeds the daemon's [`ServeMetrics`] hub
//! (DESIGN.md §12): span durations and counters from registered session
//! threads flow into the windowed metrics registries and the continuous
//! profiler *before* being routed to the per-job stream, so the `metrics`
//! verb works with or without `--trace-dir`. Both are synchronised on
//! their own (the route table's mutex, the hub's mutex), so the sink needs
//! no lock of its own.

use crate::metrics::ServeMetrics;
use citroen_telemetry::{current_thread_id, EventRecord, SpanRecord, StreamSink, TelemetrySink};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Thread-id → per-job stream registry, shared between the installed
/// [`RoutingSink`] and the session threads that register with it.
#[derive(Default)]
pub struct RouteTable {
    routes: Mutex<HashMap<u64, StreamSink>>,
}

impl RouteTable {
    /// Fresh, empty table.
    pub fn new() -> Arc<RouteTable> {
        Arc::new(RouteTable::default())
    }

    /// Route the *calling* thread's records to a new JSONL stream at `path`
    /// until [`RouteTable::unregister`]. Errors are reported, not fatal —
    /// the session simply runs without a stream.
    pub fn register_current(&self, path: PathBuf) {
        match StreamSink::create(&path) {
            Ok(sink) => {
                self.routes.lock().unwrap().insert(current_thread_id(), sink);
            }
            Err(e) => eprintln!("warning: cannot stream to '{}': {e}", path.display()),
        }
    }

    /// Stop routing the calling thread and flush/close its stream.
    pub fn unregister_current(&self) {
        let sink = self.routes.lock().unwrap().remove(&current_thread_id());
        if let Some(sink) = sink {
            let _ = sink.finish();
        }
    }

    fn with_route<F: FnOnce(&StreamSink)>(&self, thread: u64, f: F) {
        if let Some(sink) = self.routes.lock().unwrap().get(&thread) {
            f(sink);
        }
    }
}

/// The installed process-global sink: feeds the metrics hub (when present),
/// then dispatches each record to the emitting thread's registered stream,
/// dropping unrouted records.
pub struct RoutingSink {
    table: Option<Arc<RouteTable>>,
    metrics: Option<Arc<ServeMetrics>>,
}

impl RoutingSink {
    /// A sink with any combination of per-job stream routing and metrics
    /// feeding (at least one should be present to be useful).
    pub fn with_metrics(
        table: Option<Arc<RouteTable>>,
        metrics: Option<Arc<ServeMetrics>>,
    ) -> RoutingSink {
        RoutingSink { table, metrics }
    }

    fn with_route<F: FnOnce(&StreamSink)>(&self, thread: u64, f: F) {
        if let Some(table) = &self.table {
            table.with_route(thread, f);
        }
    }
}

impl TelemetrySink for RoutingSink {
    fn record_span(&self, rec: SpanRecord) {
        if let Some(m) = &self.metrics {
            m.feed_span(&rec);
        }
        let thread = rec.thread;
        self.with_route(thread, move |s| s.record_span(rec));
    }

    fn add_counter(&self, name: &str, delta: u64) {
        if let Some(m) = &self.metrics {
            m.feed_counter(name, delta);
        }
        self.with_route(current_thread_id(), |s| s.add_counter(name, delta));
    }

    fn record_value(&self, name: &str, value: u64) {
        self.with_route(current_thread_id(), |s| s.record_value(name, value));
    }

    fn record_event(&self, rec: EventRecord) {
        let thread = rec.thread;
        self.with_route(thread, move |s| s.record_event(rec));
    }
}
