//! Integration tests for the global telemetry state: span nesting, `rt::par`
//! worker attribution, enable/disable cycles, and the disabled fast path.
//!
//! The sink and the span-id stack are process-global, so every test in this
//! binary serialises on one lock (separate test binaries are separate
//! processes and cannot interfere).

use citroen_rt::par::par_map;
use citroen_telemetry as telemetry;
use citroen_telemetry::{EventRecord, MemorySink, SpanRecord, TelemetrySink, Trace};
use std::sync::Mutex;
use std::time::Duration;

static LOCK: Mutex<()> = Mutex::new(());

fn serialised() -> std::sync::MutexGuard<'static, ()> {
    // A panicking test must not wedge the rest of the binary.
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Run `f` with a fresh in-memory sink installed and return what it recorded.
fn capture(f: impl FnOnce()) -> Trace {
    telemetry::enable();
    f();
    let t = telemetry::take_trace().expect("memory sink holds a trace");
    telemetry::disable();
    t
}

#[test]
fn spans_nest_and_record_parents() {
    let _g = serialised();
    let t = capture(|| {
        let outer = telemetry::span("outer");
        {
            let _inner = telemetry::span("inner");
            let _leaf = telemetry::span_dyn(|| format!("leaf.{}", 7));
        }
        assert_eq!(telemetry::current_span(), outer.id());
        let _sibling = telemetry::span("sibling");
        drop(outer);
    });
    assert_eq!(t.spans.len(), 4);
    let by_name = |n: &str| t.spans.iter().find(|s| s.name == n).unwrap();
    let (outer, inner, leaf, sib) =
        (by_name("outer"), by_name("inner"), by_name("leaf.7"), by_name("sibling"));
    assert_eq!(outer.parent, 0);
    assert_eq!(inner.parent, outer.id);
    assert_eq!(leaf.parent, inner.id);
    assert_eq!(sib.parent, outer.id);
    // Completion order: records land as guards drop. `outer` is dropped
    // before `sibling` goes out of scope — the out-of-order drop is
    // tolerated, and `sibling` keeps the parent captured at open time.
    let order: Vec<&str> = t.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(order, ["leaf.7", "inner", "outer", "sibling"]);
    // Children start within the parent and end no later than it.
    for (c, p) in [(inner, outer), (leaf, inner)] {
        assert!(c.start_ns >= p.start_ns);
        assert!(c.start_ns + c.dur_ns <= p.start_ns + p.dur_ns);
    }
}

#[test]
fn par_workers_attribute_to_calling_span() {
    let _g = serialised();
    let t = capture(|| {
        let _batch = telemetry::span("batch");
        let out = par_map((0..64u64).collect(), |x| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            x * 2
        });
        assert_eq!(out[63], 126);
    });
    let batch = t.spans.iter().find(|s| s.name == "batch").unwrap();
    let workers: Vec<_> = t.spans.iter().filter(|s| s.name == "par.worker").collect();
    if citroen_rt::par::thread_count(64) <= 1 {
        return; // sequential fallback: no workers to attribute
    }
    assert!(!workers.is_empty());
    for w in &workers {
        assert_eq!(w.parent, batch.id, "worker span must hang off the caller's span");
        assert_ne!(w.thread, batch.thread, "worker spans run on worker threads");
    }
    assert_eq!(t.counters["par.workers"], workers.len() as u64);
    assert!(t.counters.contains_key("par.work_ns"));
    assert!(t.counters.contains_key("par.queue_wait_ns"));
}

#[test]
fn counters_and_histograms_accumulate() {
    let _g = serialised();
    let t = capture(|| {
        telemetry::counter("c.a", 2);
        telemetry::counter("c.a", 3);
        telemetry::counter("c.zero", 0); // no-op, must not create the key
        telemetry::value("h.x", 5);
        telemetry::value("h.x", 4096);
        let _s = telemetry::span("only");
    });
    assert_eq!(t.counters["c.a"], 5);
    assert!(!t.counters.contains_key("c.zero"));
    let h = &t.hists["h.x"];
    assert_eq!((h.count, h.sum, h.min, h.max), (2, 4101, 5, 4096));
}

#[test]
fn disabled_path_records_nothing() {
    let _g = serialised();
    telemetry::disable();
    assert!(!telemetry::is_enabled());
    // All entry points must be inert no-ops.
    let g = telemetry::span("ghost");
    assert_eq!(g.id(), 0);
    assert_eq!(telemetry::current_span(), 0);
    telemetry::counter("ghost.c", 9);
    telemetry::value("ghost.h", 9);
    drop(g);
    assert!(telemetry::take_trace().is_none());
    // Whatever was emitted while disabled must not leak into the next capture.
    let t = capture(|| {
        let _s = telemetry::span("real");
    });
    assert_eq!(t.spans.len(), 1);
    assert_eq!(t.spans[0].name, "real");
    assert!(t.counters.is_empty() && t.hists.is_empty());
}

/// A deterministic workload exercising every record type, with span names
/// that stress JSONL escaping (quotes, newlines, non-ASCII).
fn workload() {
    let _run = telemetry::span("run");
    for i in 0..3u64 {
        let _it = telemetry::span_dyn(|| format!("itér \"{i}\"\nline2"));
        telemetry::counter("iters", 1);
        telemetry::value("cost", 10 + i);
        telemetry::event("progress", &[("iter", i), ("best_ns", 100 - i)]);
    }
}

#[test]
fn stream_sink_replays_to_the_memory_sink_trace() {
    let _g = serialised();
    let mem = capture(workload);

    let path = std::env::temp_dir()
        .join(format!("citroen-telemetry-it-{}.jsonl", std::process::id()));
    telemetry::enable_stream(&path).unwrap();
    workload();
    drop(telemetry::disable()); // joins the writer and flushes the file
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let streamed = Trace::parse_jsonl(&text).unwrap();

    // Identical modulo timestamps and absolute span ids (the id counter is
    // process-global and does not reset between runs).
    assert_eq!(streamed.counters, mem.counters);
    assert_eq!(streamed.hists, mem.hists);
    let names =
        |t: &Trace| t.spans.iter().map(|s| s.name.clone()).collect::<Vec<_>>();
    assert_eq!(names(&streamed), names(&mem));
    let parent_names = |t: &Trace| -> Vec<(String, String)> {
        t.spans
            .iter()
            .map(|s| {
                let p = t
                    .spans
                    .iter()
                    .find(|q| q.id == s.parent)
                    .map(|q| q.name.clone())
                    .unwrap_or_default();
                (s.name.clone(), p)
            })
            .collect()
    };
    assert_eq!(parent_names(&streamed), parent_names(&mem));
    let events = |t: &Trace| {
        t.events
            .iter()
            .map(|e| (e.name.clone(), e.fields.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(events(&streamed), events(&mem));
    assert_eq!(mem.events.len(), 3);
    assert_eq!(mem.events[2].field("best_ns"), Some(98));
}

#[test]
fn enable_disable_cycles_produce_independent_traces() {
    let _g = serialised();
    let t1 = capture(|| telemetry::counter("cycle", 1));
    let t2 = capture(|| telemetry::counter("cycle", 41));
    assert_eq!(t1.counters["cycle"], 1);
    assert_eq!(t2.counters["cycle"], 41);
    // A guard opened while enabled but dropped after disable must not panic
    // and must not record.
    telemetry::enable();
    let g = telemetry::span("straddler");
    let _ = telemetry::take_trace();
    telemetry::disable();
    drop(g);
    assert!(telemetry::take_trace().is_none());
}

/// A sink that stores into a [`MemorySink`] and calls back into telemetry
/// from `record_span` (after the store, holding no lock of its own), or
/// panics on spans named `boom`.
struct Callback(MemorySink);

impl TelemetrySink for Callback {
    fn record_span(&self, rec: SpanRecord) {
        assert_ne!(rec.name, "boom", "sink failure");
        self.0.record_span(rec);
        telemetry::event("from.sink", &[("n", 1)]);
        telemetry::counter("from.sink", 1);
    }
    fn add_counter(&self, name: &str, delta: u64) {
        self.0.add_counter(name, delta);
    }
    fn record_value(&self, name: &str, value: u64) {
        self.0.record_value(name, value);
    }
    fn record_event(&self, rec: EventRecord) {
        self.0.record_event(rec);
    }
    fn take_trace(&self) -> Option<Trace> {
        self.0.take_trace()
    }
}

#[test]
fn a_sink_may_call_back_into_telemetry() {
    let _g = serialised();
    telemetry::install(Box::new(Callback(MemorySink::new())));
    // Record on a spawned thread behind a watchdog: a sink dispatched under
    // a telemetry lock would self-deadlock here, and the timeout turns that
    // into a failure instead of a hung test binary.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        drop(telemetry::span("outer"));
        tx.send(()).unwrap();
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("a sink calling back into telemetry must not deadlock");
    let t = telemetry::take_trace().expect("memory sink holds a trace");
    telemetry::disable();
    assert_eq!(t.spans.len(), 1);
    assert_eq!(t.events.len(), 1);
    assert_eq!(t.events[0].name, "from.sink");
    assert_eq!(t.counters["from.sink"], 1);
}

#[test]
fn a_panicking_sink_does_not_poison_dispatch() {
    let _g = serialised();
    telemetry::install(Box::new(Callback(MemorySink::new())));
    let boom = std::panic::catch_unwind(|| drop(telemetry::span("boom")));
    assert!(boom.is_err(), "the sink panics on `boom`");
    // Records from another thread still reach the sink.
    std::thread::spawn(|| {
        drop(telemetry::span("after"));
        telemetry::counter("after", 2);
    })
    .join()
    .expect("recording after a sink panic must not panic");
    let sink = telemetry::disable().expect("disable returns the installed sink");
    let t = sink.take_trace().expect("memory sink holds a trace");
    let names: Vec<&str> = t.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["after"]);
    assert_eq!(t.counters["after"], 2);
}
