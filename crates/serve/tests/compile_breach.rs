//! A compile-latency SLO breach detected in `ServeMetrics::feed_span` is
//! emitted as a `slo.breach.compile_us` event by `feed_span` itself — it is
//! not held back for a later lifecycle hook.
//!
//! One test function: it installs the process-global telemetry sink, so the
//! scenario owns the whole test binary.

use citroen_serve::{ServeMetrics, SloConfig};
use citroen_telemetry as telemetry;
use citroen_telemetry::metrics::WindowCfg;
use citroen_telemetry::SpanRecord;

#[test]
fn compile_breach_is_emitted_by_feed_span() {
    let m = ServeMetrics::new(
        WindowCfg::default(),
        SloConfig { compile_us: 0.001, alpha: 1.0, ..Default::default() },
    );
    // Register this thread as a session thread; `feed_span` ignores spans
    // from unregistered threads.
    m.session_started("a", 0);
    telemetry::enable();
    m.feed_span(&SpanRecord {
        id: 1,
        parent: 0,
        name: "compile".to_string(),
        thread: telemetry::current_thread_id(),
        start_ns: 0,
        dur_ns: 5_000_000,
    });
    let trace = telemetry::take_trace().expect("memory sink holds a trace");
    telemetry::disable();

    assert!(!m.healthy(), "the compile sentinel flips health immediately");
    let breaches: Vec<&str> = trace
        .events
        .iter()
        .map(|e| e.name.as_str())
        .filter(|n| n.starts_with("slo.breach."))
        .collect();
    assert_eq!(breaches, ["slo.breach.compile_us"]);
    let ev = &trace.events[0];
    assert_eq!(ev.field("threshold_bits"), Some(0.001f64.to_bits()));
    assert_eq!(ev.field("ewma_bits"), Some(5_000.0f64.to_bits()));
}
