//! Flight recorder: an always-on, bounded ring of recent spans and
//! events that dumps a timestamped JSON incident bundle when an anomaly
//! fires (worker death, recovery, session rejection, deadline miss).
//!
//! Design notes:
//!
//! * The recorder is independent of the tracing collector: finished
//!   spans are teed into its ring by the tracer's buffer flush (one
//!   lock per ≤256 spans, so the happy path pays nothing per span),
//!   and the ring keeps only the most recent 4096 spans.
//!   Draining the collector (e.g. a bench calling `take_spans`) does
//!   not erase the recorder's view of recent history.
//! * [`event`] records lightweight timestamped breadcrumbs (worker
//!   state changes, admissions, recoveries) that survive even when
//!   tracing is disabled.
//! * [`incident`] snapshots rings + the global metrics registry into a
//!   self-contained JSON bundle under the configured output directory
//!   (default `results/incidents`). A suppression window per incident
//!   subject (kind plus the worker or tenant it is about) keeps a
//!   flapping anomaly from flooding the disk without letting one
//!   worker's death swallow another's bundle.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

use parking_lot::{Condvar, Mutex};

use crate::export::{json_escape_into, to_json};
use crate::trace::SpanRecord;

/// Most recent finished spans retained for incident bundles.
const SPAN_RING_CAP: usize = 4096;
/// Most recent events retained for incident bundles.
const EVENT_RING_CAP: usize = 512;
/// In-memory incident summaries kept for the `/incidents` endpoint.
const INCIDENT_KEEP: usize = 64;
/// Minimum spacing between two dumped bundles about the same subject;
/// repeats inside the window are counted but not written.
const SUPPRESS_WINDOW_NANOS: u64 = 1_000_000_000;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// One timestamped breadcrumb (e.g. "worker 2 marked dead").
#[derive(Debug, Clone)]
pub struct EventRecord {
    /// Wall-clock time of the event, nanoseconds since the unix epoch.
    pub unix_nanos: u64,
    /// Coarse category (`supervision`, `coord`, `session`, ...).
    pub category: &'static str,
    /// Human-readable description.
    pub message: String,
}

/// Summary of one dumped (or suppressed) incident, kept in memory for
/// the coordinator's `/incidents` endpoint.
#[derive(Debug, Clone)]
pub struct IncidentSummary {
    /// Anomaly kind (`worker_death`, `session_rejected`, ...).
    pub kind: &'static str,
    /// Free-form detail line from the call site.
    pub detail: String,
    /// Wall-clock time of the anomaly, nanoseconds since the unix epoch.
    pub unix_nanos: u64,
    /// Bundle path, empty when the dump was suppressed or failed.
    pub path: String,
}

struct State {
    spans: VecDeque<SpanRecord>,
    events: VecDeque<EventRecord>,
    incidents: VecDeque<IncidentSummary>,
    /// Last dump time per `(kind, subject)`.
    last_dump: BTreeMap<(&'static str, u64), u64>,
    output_dir: PathBuf,
    seq: u64,
}

impl State {
    fn new() -> Self {
        Self {
            spans: VecDeque::new(),
            events: VecDeque::new(),
            incidents: VecDeque::new(),
            last_dump: BTreeMap::new(),
            output_dir: PathBuf::from("results/incidents"),
            seq: 0,
        }
    }
}

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(State::new()))
}

/// Incident-arrival barrier: a generation counter bumped by every
/// [`incident`] call (written, suppressed, or failed) plus a condvar for
/// [`wait_for_incident`]. Separate from the ring state, so a waiter
/// never holds the ring's lock.
fn incident_signal() -> &'static (Mutex<u64>, Condvar) {
    static SIGNAL: OnceLock<(Mutex<u64>, Condvar)> = OnceLock::new();
    SIGNAL.get_or_init(|| (Mutex::new(0), Condvar::new()))
}

fn bump_incident_signal() {
    let (lock, cond) = incident_signal();
    *lock.lock() += 1;
    cond.notify_all();
}

/// Blocks until some recorded incident satisfies `pred`, waking on every
/// new [`incident`] call, and returns the first match (oldest first).
/// Returns `None` on timeout. This is the incident-ring barrier that
/// replaces sleep-polling in time-sensitive tests.
pub fn wait_for_incident(
    timeout: std::time::Duration,
    mut pred: impl FnMut(&IncidentSummary) -> bool,
) -> Option<IncidentSummary> {
    let deadline = std::time::Instant::now() + timeout;
    let (lock, cond) = incident_signal();
    loop {
        let seen = *lock.lock();
        if let Some(hit) = recent_incidents().into_iter().find(&mut pred) {
            return Some(hit);
        }
        let now = std::time::Instant::now();
        if now >= deadline {
            return None;
        }
        // An incident recorded since `seen` was read is re-checked at
        // once instead of waited for.
        let generation = lock.lock();
        if *generation == seen {
            drop(cond.wait_timeout(generation, deadline - now));
        }
    }
}

fn unix_nanos() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// Turns the flight recorder on or off process-wide. Off (the default)
/// short-circuits every recording call before any lock or allocation.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Whether the flight recorder is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// Sets the directory incident bundles are written to (created on
/// demand at dump time). Default: `results/incidents`.
pub fn set_output_dir(dir: impl Into<PathBuf>) {
    state().lock().output_dir = dir.into();
}

/// Tees a batch of finished spans into the recorder ring. Called by the
/// tracer's buffer flush; callers gate on [`enabled`].
pub fn observe_spans(spans: &[SpanRecord]) {
    if spans.is_empty() {
        return;
    }
    let mut st = state().lock();
    for rec in spans {
        if st.spans.len() >= SPAN_RING_CAP {
            st.spans.pop_front();
        }
        st.spans.push_back(rec.clone());
    }
}

/// Records a timestamped breadcrumb. No-op when the recorder is
/// disabled; gate any `format!` on [`enabled`] at the call site.
pub fn event(category: &'static str, message: String) {
    if !enabled() {
        return;
    }
    let rec = EventRecord {
        unix_nanos: unix_nanos(),
        category,
        message,
    };
    let mut st = state().lock();
    if st.events.len() >= EVENT_RING_CAP {
        st.events.pop_front();
    }
    st.events.push_back(rec);
}

/// Reports an anomaly about `subject` — the worker index or tenant
/// namespace it concerns (0 for kinds with no finer subject): snapshots
/// the span/event rings plus the global metrics registry into a JSON
/// bundle under the output directory and returns its path. Returns
/// `None` when the recorder is disabled, the same kind fired for the
/// same subject within the suppression window, or the write failed (the
/// incident is still counted and listed in either non-write case).
pub fn incident(kind: &'static str, subject: u64, detail: &str) -> Option<PathBuf> {
    if !enabled() {
        return None;
    }
    let now = unix_nanos();
    crate::metrics::global().inc("recorder.incidents");
    let mut st = state().lock();
    let suppressed = st
        .last_dump
        .get(&(kind, subject))
        .is_some_and(|&last| now.saturating_sub(last) < SUPPRESS_WINDOW_NANOS);
    let mut summary = IncidentSummary {
        kind,
        detail: detail.to_string(),
        unix_nanos: now,
        path: String::new(),
    };
    let mut written = None;
    if !suppressed {
        st.last_dump.insert((kind, subject), now);
        st.seq += 1;
        let name = format!("incident-{}-{}-{}.json", now / 1_000_000, kind, st.seq);
        let path = st.output_dir.join(name);
        let body = render_bundle(&st, kind, detail, now);
        drop(st);
        if std::fs::create_dir_all(path.parent().unwrap_or(Path::new(".")))
            .and_then(|_| std::fs::write(&path, body))
            .is_ok()
        {
            summary.path = path.to_string_lossy().into_owned();
            written = Some(path);
        }
        st = state().lock();
    }
    if st.incidents.len() >= INCIDENT_KEEP {
        st.incidents.pop_front();
    }
    st.incidents.push_back(summary);
    drop(st);
    bump_incident_signal();
    written
}

/// Recent incident summaries, oldest first.
pub fn recent_incidents() -> Vec<IncidentSummary> {
    state().lock().incidents.iter().cloned().collect()
}

/// Renders [`recent_incidents`] as a JSON array (for the `/incidents`
/// ops endpoint).
pub fn incidents_json() -> String {
    let incidents = recent_incidents();
    let mut out = String::from("[");
    for (i, inc) in incidents.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"kind\":");
        json_escape_into(&mut out, inc.kind);
        out.push_str(",\"detail\":");
        json_escape_into(&mut out, &inc.detail);
        out.push_str(&format!(",\"unix_ms\":{}", inc.unix_nanos / 1_000_000));
        out.push_str(",\"path\":");
        json_escape_into(&mut out, &inc.path);
        out.push('}');
    }
    out.push(']');
    out
}

/// Clears the span/event/incident rings and suppression state. Meant
/// for tests; leaves the enabled flag and output dir untouched.
pub fn reset() {
    let mut st = state().lock();
    st.spans.clear();
    st.events.clear();
    st.incidents.clear();
    st.last_dump.clear();
    st.seq = 0;
}

fn render_bundle(st: &State, kind: &str, detail: &str, now: u64) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("{\"kind\":");
    json_escape_into(&mut out, kind);
    out.push_str(",\"detail\":");
    json_escape_into(&mut out, detail);
    out.push_str(&format!(
        ",\"unix_ms\":{},\"seq\":{}",
        now / 1_000_000,
        st.seq
    ));
    out.push_str(",\"events\":[");
    for (i, ev) in st.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"unix_ms\":{},\"category\":",
            ev.unix_nanos / 1_000_000
        ));
        json_escape_into(&mut out, ev.category);
        out.push_str(",\"message\":");
        json_escape_into(&mut out, &ev.message);
        out.push('}');
    }
    out.push_str("],\"spans\":[");
    for (i, rec) in st.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        crate::export::span_json_into(&mut out, rec);
    }
    out.push_str("],\"metrics\":");
    out.push_str(&to_json(&crate::metrics::global().snapshot()));
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::Json;
    use crate::trace::SpanKind;

    // Tests share the process-global enabled flag and rings.
    static GATE: Mutex<()> = Mutex::new(());

    fn sample_span(name: &'static str) -> SpanRecord {
        SpanRecord {
            trace_id: 7,
            span_id: 8,
            parent_id: 0,
            kind: SpanKind::Worker,
            name,
            start_unix_nanos: 1,
            duration_nanos: 2,
            attrs: vec![("worker", crate::trace::AttrValue::U64(3))],
        }
    }

    #[test]
    fn wait_for_incident_wakes_on_arrival_and_times_out_clean() {
        let _g = GATE.lock();
        set_enabled(true);
        set_output_dir(std::env::temp_dir().join(format!("exdra-rec-wait-{}", std::process::id())));
        reset();
        // No match yet: a short wait must time out rather than hang.
        let t0 = std::time::Instant::now();
        assert!(
            wait_for_incident(std::time::Duration::from_millis(30), |i| i.kind == "never")
                .is_none()
        );
        assert!(t0.elapsed() >= std::time::Duration::from_millis(25));
        // Arrival from another thread wakes the waiter.
        let waiter = std::thread::spawn(|| {
            wait_for_incident(std::time::Duration::from_secs(5), |i| i.kind == "wait_kind")
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        incident("wait_kind", 0, "arrived");
        let hit = waiter.join().unwrap().expect("waiter saw the incident");
        assert_eq!(hit.detail, "arrived");
        set_enabled(false);
        reset();
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _g = GATE.lock();
        set_enabled(false);
        event("test", "ignored".into());
        assert!(incident("test_disabled", 0, "x").is_none());
    }

    #[test]
    fn incident_bundle_round_trips_and_suppresses_repeats() {
        let _g = GATE.lock();
        let dir = std::env::temp_dir().join(format!("exdra-rec-test-{}", std::process::id()));
        set_enabled(true);
        set_output_dir(&dir);
        reset();
        observe_spans(&[sample_span("worker.batch")]);
        event("test", "breadcrumb".into());
        let path = incident("test_kind", 0, "first").expect("bundle written");
        // Same kind and subject inside the suppression window: counted,
        // not written. Another subject of the same kind is a different
        // incident and gets its own bundle.
        assert!(incident("test_kind", 0, "second").is_none());
        assert!(incident("test_kind", 1, "other subject").is_some());
        let text = std::fs::read_to_string(&path).expect("bundle readable");
        let doc = Json::parse(&text).expect("bundle parses");
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("test_kind"));
        let spans = match doc.get("spans") {
            Some(Json::Arr(a)) => a,
            other => panic!("spans array, got {other:?}"),
        };
        assert!(spans
            .iter()
            .any(|s| s.get("name").and_then(Json::as_str) == Some("worker.batch")));
        assert_eq!(recent_incidents().len(), 3);
        assert!(recent_incidents()[1].path.is_empty());
        set_enabled(false);
        reset();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
