//! Per-layer metrics from a traced run: the spans, counters and histograms
//! the program already emits at its layer boundaries, aggregated with
//! `Trace::aggregate` (self time = span time not covered by child spans).

use crate::report::Metric;
use citroen_telemetry::Trace;

const NS: f64 = 1e-9;

/// Span self time, total time and count, by span name.
struct Spans(Vec<citroen_telemetry::NameAgg>);

impl Spans {
    fn row(&self, name: &str) -> (f64, f64, usize) {
        self.0
            .iter()
            .find(|a| a.name == name)
            .map(|a| {
                (
                    a.self_ns as f64 * NS,
                    a.total_ns as f64 * NS,
                    a.count as usize,
                )
            })
            .unwrap_or((0.0, 0.0, 0))
    }
    fn self_s(&self, name: &str) -> f64 {
        self.row(name).0
    }
    fn total_s(&self, name: &str) -> f64 {
        self.row(name).1
    }
    fn count(&self, name: &str) -> usize {
        self.row(name).2
    }
}

/// Wall-time totals of the tuning loop's own phase spans, for workloads
/// whose `Task` fields the benchmark cannot read (daemon sessions).
pub struct PhaseTimes {
    /// `compile` spans, total seconds.
    pub compile_s: f64,
    /// `measure` spans, total seconds.
    pub measure_s: f64,
    /// `fit` + `acquire` spans, total seconds (the model bucket).
    pub model_s: f64,
}

/// The phase totals of `trace`.
pub fn phase_times(trace: &Trace) -> PhaseTimes {
    let spans = Spans(trace.aggregate());
    PhaseTimes {
        compile_s: spans.total_s("compile"),
        measure_s: spans.total_s("measure"),
        model_s: spans.total_s("fit") + spans.total_s("acquire"),
    }
}

/// The layer metrics of the `passes`, `ir`, `sim`, `gp`, `bo`, `rt` and
/// `telemetry` layers, with one `pass.<name>.self_s` row per registered
/// pass (zero for a pass that never ran).
pub fn trace_metrics(trace: &Trace, pass_names: &[&str]) -> Vec<Metric> {
    let spans = Spans(trace.aggregate());
    let counter = |name: &str| trace.counters.get(name).copied().unwrap_or(0) as f64;
    let counters_with = |prefix: &str, suffix: &str| -> f64 {
        trace
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, v)| *v)
            .sum::<u64>() as f64
    };
    let hist = |name: &str| trace.hists.get(name);
    let pass_span = |p: &str| format!("pass.{p}");

    let pass_self: f64 = pass_names.iter().map(|p| spans.self_s(&pass_span(p))).sum();
    let pass_spans: usize = pass_names.iter().map(|p| spans.count(&pass_span(p))).sum();
    let mut m = vec![
        Metric::new("passes.self_s", "s", pass_self, pass_spans),
        Metric::new("passes.runs", "count", counters_with("pass.", ".runs"), 1),
        Metric::new(
            "compile.self_s",
            "s",
            spans.self_s("compile"),
            spans.count("compile"),
        ),
    ];
    for p in pass_names {
        let name = pass_span(p);
        m.push(Metric::new(
            format!("{name}.self_s"),
            "s",
            spans.self_s(&name),
            spans.count(&name),
        ));
    }
    let cycles = hist("sim.cycles");
    let fit_obs = hist("gp.fit_obs");
    m.extend([
        Metric::new("ir.link_s", "s", spans.self_s("link"), spans.count("link")),
        Metric::new("ir.links", "count", spans.count("link") as f64, 1),
        Metric::new(
            "sim.execute_s",
            "s",
            spans.self_s("sim.execute"),
            spans.count("sim.execute"),
        ),
        Metric::new(
            "sim.executions",
            "count",
            spans.count("sim.execute") as f64,
            1,
        ),
        Metric::new(
            "sim.cycles",
            "cycles",
            cycles.map_or(0.0, |h| h.sum as f64),
            cycles.map_or(0, |h| h.count as usize),
        ),
        Metric::new(
            "gp.fit_s",
            "s",
            spans.self_s("gp.fit"),
            spans.count("gp.fit"),
        ),
        Metric::new("gp.fits", "count", spans.count("gp.fit") as f64, 1),
        Metric::new(
            "gp.fit_obs_max",
            "count",
            fit_obs.map_or(0.0, |h| h.max as f64),
            fit_obs.map_or(0, |h| h.count as usize),
        ),
        Metric::new("gp.predict_calls", "count", counter("gp.predict.calls"), 1),
        Metric::new(
            "bo.acquire_s",
            "s",
            spans.self_s("acquire"),
            spans.count("acquire"),
        ),
        Metric::new("bo.acq_evals", "count", counter("acq.evals"), 1),
        Metric::new("bo.canon_dropped", "count", counters_with("canon.", ""), 1),
        Metric::new("rt.par_work_s", "s", counter("par.work_ns") * NS, 1),
        Metric::new(
            "rt.par_queue_wait_s",
            "s",
            counter("par.queue_wait_ns") * NS,
            1,
        ),
        Metric::new("rt.par_workers", "count", counter("par.workers"), 1),
        Metric::new(
            "telemetry.records",
            "count",
            (trace.spans.len() + trace.events.len()) as f64,
            1,
        ),
    ]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use citroen_telemetry::SpanRecord;

    fn span(id: u64, parent: u64, name: &str, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            thread: 1,
            start_ns: 0,
            dur_ns,
        }
    }

    #[test]
    fn self_time_excludes_child_layers() {
        let mut t = Trace::new();
        t.spans = vec![
            span(1, 0, "compile", 10_000),
            span(2, 1, "pass.gvn", 6_000),
            span(3, 2, "verify", 1_000),
            span(4, 0, "gp.fit", 3_000),
        ];
        t.counters.insert("pass.gvn.runs".to_string(), 1);
        t.counters.insert("canon.dead_dropped".to_string(), 2);
        t.counters.insert("canon.subsume_dropped".to_string(), 3);
        let m = trace_metrics(&t, &["gvn", "dce"]);
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert!((get("compile.self_s") - 4e-6).abs() < 1e-15);
        assert!((get("passes.self_s") - 5e-6).abs() < 1e-15);
        assert_eq!(get("pass.dce.self_s"), 0.0);
        assert_eq!(get("passes.runs"), 1.0);
        assert_eq!(get("bo.canon_dropped"), 5.0);
        assert!((get("gp.fit_s") - 3e-6).abs() < 1e-15);
        assert_eq!(get("telemetry.records"), 4.0);
    }
}
