//! Hand-rolled JSON and CSV exporters for the metrics bundle and a run
//! of boundary [`Event`]s (the framework's flight recorder reads them
//! back from the evidence journal). No serde — the workspace is hermetic — so the
//! emitters write the documented schema directly and
//! [`crate::schema::validate_telemetry_json`] checks round-trips.
//!
//! # Documented JSON schema (`schema_version` 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "counters": { "<counter name>": u64, ... },            // one per Counter::ALL
//!   "phases": [ { "phase": str, "count": u64, "sum_ns": u64,
//!                 "mean_ns": u64, "max_ns": u64,
//!                 "buckets": [u64; 32] }, ... ],
//!   "dirty_pages": { "count": u64, "sum": u64, "mean": u64,
//!                    "max": u64, "buckets": [u64; 32] },
//!   "audit_ns":    { same histogram object },
//!   "workers": [ { "slot": u64, "pages": u64, "bytes": u64,
//!                  "syscalls": u64 }, ... ],               // non-empty slots
//!   "events": [ { "epoch": u64, "at_ns": u64, "kind": str,
//!                 "arg": u64? }, ... ]                     // oldest first
//! }
//! ```

use std::fmt::Write as _;

use crate::metrics::{Counter, Histogram, Telemetry};
use crate::recorder::Event;

/// Version stamped into every export; bump when the shape changes.
pub const SCHEMA_VERSION: u64 = 1;

fn histogram_json(out: &mut String, h: &Histogram) {
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{},\"mean\":{},\"max\":{},\"buckets\":[",
        h.count(),
        h.sum(),
        h.mean(),
        h.max()
    );
    for (i, b) in h.buckets().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{b}");
    }
    out.push_str("]}");
}

/// Serialise a telemetry bundle plus `events` (oldest first) as one JSON
/// document (see the module-level schema).
pub fn telemetry_json(t: &Telemetry, events: impl IntoIterator<Item = Event>) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"schema_version\":{SCHEMA_VERSION},\"counters\":{{");
    for (i, c) in Counter::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", c.name(), t.counter(*c));
    }
    out.push_str("},\"phases\":[");
    for (i, (label, h)) in t.phases().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"phase\":\"{label}\",\"count\":{},\"sum_ns\":{},\"mean_ns\":{},\"max_ns\":{},\"buckets\":[",
            h.count(),
            h.sum(),
            h.mean(),
            h.max()
        );
        for (j, b) in h.buckets().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{b}");
        }
        out.push_str("]}");
    }
    out.push_str("],\"dirty_pages\":");
    histogram_json(&mut out, t.dirty_pages());
    out.push_str(",\"audit_ns\":");
    histogram_json(&mut out, t.audit_ns());
    out.push_str(",\"workers\":[");
    let mut first = true;
    for (slot, w) in t.workers().iter().enumerate() {
        if w.pages == 0 && w.bytes == 0 && w.syscalls == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"slot\":{slot},\"pages\":{},\"bytes\":{},\"syscalls\":{}}}",
            w.pages, w.bytes, w.syscalls
        );
    }
    out.push_str("],\"events\":[");
    for (i, e) in events.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"epoch\":{},\"at_ns\":{},\"kind\":\"{}\"",
            e.epoch,
            e.at_ns,
            e.kind.label()
        );
        if let Some(arg) = e.kind.arg() {
            let _ = write!(out, ",\"arg\":{arg}");
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Counters as two-column CSV (`counter,value`), one row per counter.
pub fn counters_csv(t: &Telemetry) -> String {
    let mut out = String::from("counter,value\n");
    for c in Counter::ALL {
        let _ = writeln!(out, "{},{}", c.name(), t.counter(c));
    }
    out
}

/// Per-phase timing summary as CSV
/// (`phase,count,sum_ns,mean_ns,max_ns`), one row per tracked phase.
pub fn phases_csv(t: &Telemetry) -> String {
    let mut out = String::from("phase,count,sum_ns,mean_ns,max_ns\n");
    for (label, h) in t.phases() {
        let _ = writeln!(
            out,
            "{label},{},{},{},{}",
            h.count(),
            h.sum(),
            h.mean(),
            h.max()
        );
    }
    out
}

/// `events` as CSV (`epoch,at_ns,kind,arg`), in the order given; `arg`
/// is empty for payload-free kinds.
pub fn events_csv(events: impl IntoIterator<Item = Event>) -> String {
    let mut out = String::from("epoch,at_ns,kind,arg\n");
    for e in events {
        let arg = e.kind.arg().map(|a| a.to_string()).unwrap_or_default();
        let _ = writeln!(out, "{},{},{},{arg}", e.epoch, e.at_ns, e.kind.label());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::EventKind;

    fn sample() -> (Telemetry, [Event; 2]) {
        let mut t = Telemetry::new(&["suspend", "copy"]);
        t.add(Counter::EpochsCommitted, 2);
        t.record_phase_ns(0, 1_000);
        t.record_phase_ns(1, 2_000);
        t.record_dirty_pages(17);
        t.record_audit_ns(5_500);
        t.record_worker(0, 17, 17 * 4096, 1);
        let events = [
            Event { epoch: 0, at_ns: 10, kind: EventKind::EpochStart },
            Event { epoch: 0, at_ns: 20, kind: EventKind::Committed { released: 3 } },
        ];
        (t, events)
    }

    #[test]
    fn json_export_contains_every_documented_section() {
        let (t, r) = sample();
        let json = telemetry_json(&t, r);
        for key in [
            "\"schema_version\":1",
            "\"counters\"",
            "\"epochs_committed\":2",
            "\"phases\"",
            "\"phase\":\"suspend\"",
            "\"dirty_pages\"",
            "\"audit_ns\"",
            "\"workers\"",
            "\"slot\":0",
            "\"events\"",
            "\"kind\":\"committed\",\"arg\":3",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn csv_exports_have_headers_and_rows() {
        let (t, r) = sample();
        let counters = counters_csv(&t);
        assert!(counters.starts_with("counter,value\n"));
        assert!(counters.contains("epochs_committed,2\n"));
        assert_eq!(counters.lines().count(), 1 + Counter::ALL.len());
        let phases = phases_csv(&t);
        assert!(phases.contains("suspend,1,1000,1000,1000"));
        let events = events_csv(r);
        assert!(events.contains("0,20,committed,3"));
        assert!(events.contains("0,10,epoch_start,\n"));
    }
}
