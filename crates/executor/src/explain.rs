//! EXPLAIN ANALYZE: rendering a [`TraceReport`] with interval estimates
//! next to actuals, drift flags, and the choose-plan audit trail.
//!
//! The paper's correctness condition is that the optimizer's interval
//! estimates *bracket* run-time behavior — `[lo, hi]` cardinality and
//! cost intervals are supposed to contain the actuals for any binding in
//! the modeled domain. [`card_drift`] / [`cost_drift`] test exactly that
//! per node, and the renderers flag violations (`DRIFT`). Output comes in
//! two shapes: [`render_explain`] for humans and [`explain_json`] for
//! machines. Each block of the document declares its field list once;
//! [`explain_json`] writes from the lists and [`validate_explain_json`] —
//! what the CI smoke jobs run — checks against them.

use dqep_catalog::SystemConfig;
use std::fmt::Write as _;

use crate::json::Kind::{Bool, NonNeg, Nullable, Num, Optional, Str};
use crate::json::{parse_json, At, JsonWriter};
use crate::json_block;
use crate::reopt::{ReoptCounters, ReoptEvent};
use crate::trace::{
    AltAudit, AttemptAudit, ChooseAudit, NetSpanStats, NodeEstimate, SpanRecord, SpanStats,
    TraceReport,
};

/// Slack applied when testing an actual against `[lo, hi]`: half a row
/// absolute (interval endpoints are real-valued expectations, actuals are
/// integers) plus a hair of relative tolerance for float noise.
fn outside(actual: f64, lo: f64, hi: f64, abs_slack: f64, rel_slack: f64) -> bool {
    let slack = abs_slack + rel_slack * hi.abs().max(1.0);
    actual < lo - slack || actual > hi + slack
}

/// Whether a span is eligible for drift evaluation: it must carry an
/// estimate, have actually run (`opens > 0`), and have finished without
/// errors — a choose-plan attempt that failed and fell back legitimately
/// delivered no rows, which is abandonment, not drift.
fn drift_eligible(record: &SpanRecord) -> bool {
    record.estimate.is_some() && record.stats.opens > 0 && record.stats.errors == 0
}

/// Whether the span's actual output cardinality fell outside its
/// compile-time `[lo, hi]` estimate — the paper's per-operator
/// correctness condition. `None` when the span is not drift-eligible
/// (no estimate, never opened, or ended in an error).
#[must_use]
pub fn card_drift(record: &SpanRecord) -> Option<bool> {
    if !drift_eligible(record) {
        return None;
    }
    let est = record.estimate?;
    Some(outside(
        record.stats.rows as f64,
        est.card.lo(),
        est.card.hi(),
        0.5,
        1e-9,
    ))
}

/// Whether the span's actual simulated cost (accounted CPU + I/O seconds
/// under `config`) fell outside its compile-time cost interval. Uses 5%
/// relative slack: the cost model and the execution accounting share
/// constants but differ in small per-operator approximations. `None`
/// under the same conditions as [`card_drift`].
#[must_use]
pub fn cost_drift(record: &SpanRecord, config: &SystemConfig) -> Option<bool> {
    if !drift_eligible(record) {
        return None;
    }
    let est = record.estimate?;
    Some(outside(
        record.stats.simulated_seconds(config),
        est.cost.lo(),
        est.cost.hi(),
        1e-6,
        0.05,
    ))
}

/// Formats a float compactly: integers without a fraction, everything
/// else with four decimals.
fn num(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

fn render_span(out: &mut String, report: &TraceReport, record: &SpanRecord, depth: usize, config: &SystemConfig) {
    let pad = "  ".repeat(depth);
    let node = record
        .node
        .map_or(String::new(), |n| format!("  [node n{n}, dop {}]", record.dop));
    let _ = writeln!(out, "{pad}{}{node}", record.label);
    if let Some(est) = record.estimate {
        let _ = writeln!(
            out,
            "{pad}  est: card=[{}, {}] cost=[{}, {}]s",
            num(est.card.lo()),
            num(est.card.hi()),
            num(est.cost.lo()),
            num(est.cost.hi()),
        );
    }
    let s = &record.stats;
    let flag = match (card_drift(record), cost_drift(record, config)) {
        (Some(true), Some(true)) => "DRIFT(card,cost)",
        (Some(true), _) => "DRIFT(card)",
        (_, Some(true)) => "DRIFT(cost)",
        (Some(false), _) | (_, Some(false)) => "ok",
        _ => "not-evaluated",
    };
    let _ = writeln!(
        out,
        "{pad}  act: rows={} batches={} sim={}s wall={:.3}ms io={}r+{}w mem={}B temp={}p  [{flag}]",
        s.rows,
        s.batches,
        num(s.simulated_seconds(config)),
        (s.open_wall_ns + s.next_wall_ns) as f64 / 1e6,
        s.io.seq_reads + s.io.random_reads,
        s.io.writes,
        s.mem_peak,
        s.temp_pages_peak,
    );
    if let Some(net) = &record.net {
        if net.sent {
            let _ = writeln!(
                out,
                "{pad}  net: link {}->{} sent {} frame(s), {} byte(s), {} retransmit(s), \
                 {} credit stall(s) ({:.3}ms waiting)",
                net.from,
                net.to,
                net.frames,
                net.bytes,
                net.retransmits,
                net.credit_stalls,
                net.credit_wait_ns as f64 / 1e6,
            );
        } else {
            let remote = net
                .remote_span
                .map_or("none".to_string(), |r| format!("span {r}"));
            let _ = writeln!(
                out,
                "{pad}  net: link {}->{} received (remote {remote})",
                net.from, net.to,
            );
        }
    }
    for child in report.children_of(record.id) {
        render_span(out, report, child, depth + 1, config);
    }
}

fn render_audit(out: &mut String, audit: &ChooseAudit) {
    let binds = audit
        .bind_values
        .iter()
        .map(|(var, value)| format!("{var}={value}"))
        .collect::<Vec<_>>()
        .join(", ");
    let mem = audit
        .memory_pages
        .map_or(String::new(), |p| format!(", memory={} pages", num(p)));
    let _ = writeln!(
        out,
        "  node n{}: binds {{{binds}}}{mem}, preferred=alt {}",
        audit.node, audit.preferred
    );
    for alt in &audit.alternatives {
        let _ = writeln!(
            out,
            "    alt {}: {} — predicted {}s",
            alt.index,
            alt.label,
            num(alt.predicted_seconds)
        );
    }
    for attempt in &audit.attempts {
        let _ = writeln!(out, "    attempt alt {} -> {}", attempt.index, attempt.outcome);
    }
    match audit.winner {
        Some(winner) => {
            let _ = writeln!(
                out,
                "    winner: alt {winner} after {} fallback(s)",
                audit.fallbacks
            );
        }
        None => {
            let _ = writeln!(out, "    winner: none (all alternatives failed)");
        }
    }
}

fn render_reopt(out: &mut String, reopt: &crate::reopt::ReoptReport) {
    let c = &reopt.counters;
    out.push_str("re-optimization:\n");
    let _ = writeln!(
        out,
        "  checkpoints={} escapes={} replans={}/{} denied={} failures={} \
         memory-degradations={} observed-arbitrations={} fallbacks={}",
        c.checkpoints,
        c.escapes,
        c.replans_adopted,
        c.replans_attempted,
        c.replans_denied,
        c.replan_failures,
        c.memory_degradations,
        c.observed_arbitrations,
        c.fallbacks,
    );
    for event in &reopt.events {
        let node = event.node.map_or(String::new(), |n| format!(" n{}", n.0));
        let observed = match (event.estimate, event.observed) {
            (Some((lo, hi)), Some(actual)) => {
                format!(" observed {} vs est [{}, {}] —", num(actual), num(lo), num(hi))
            }
            (None, Some(actual)) => format!(" observed {} —", num(actual)),
            _ => String::new(),
        };
        let _ = writeln!(out, "  {}{node}:{observed} {}", event.kind.label(), event.detail);
    }
}

/// Renders the human-readable EXPLAIN ANALYZE: the span tree with
/// per-node estimate vs actual lines and drift flags, followed by the
/// choose-plan audit trail and (when the query ran with mid-query
/// re-optimization) the re-optimization audit trail.
#[must_use]
pub fn render_explain(report: &TraceReport, config: &SystemConfig) -> String {
    let mut out = String::from("EXPLAIN ANALYZE\n");
    for root in report.roots() {
        render_span(&mut out, report, root, 0, config);
    }
    if !report.audits.is_empty() {
        out.push_str("choose-plan audit:\n");
        for audit in &report.audits {
            render_audit(&mut out, audit);
        }
    }
    if !report.reopt.events.is_empty() {
        render_reopt(&mut out, &report.reopt);
    }
    out
}

json_block! {
    NODE, fn write_node(w, record: &SpanRecord, config: &SystemConfig) {
        "span": Num => record.id.0,
        "parent": Nullable(&Num) => record.parent.map(|p| p.0),
        "label": Str => record.label.as_str(),
        "kind": Str => record.kind,
        "node": Nullable(&Num) => record.node,
        "dop": Num => record.dop,
        // Distributed-tracing field, added after the first version.
        "start_ns": Optional(&NonNeg) => record.start_ns,
        "card_drift": Nullable(&Bool) => card_drift(record),
        "cost_drift": Nullable(&Bool) => cost_drift(record, config),
    }
}
json_block! {
    ESTIMATE, fn write_estimate(w, est: NodeEstimate) {
        "card_lo": Num => est.card.lo(),
        "card_hi": Num => est.card.hi(),
        "cost_lo": Num => est.cost.lo(),
        "cost_hi": Num => est.cost.hi(),
    }
}
json_block! {
    ACTUAL, fn write_actual(w, s: &SpanStats, config: &SystemConfig) {
        "rows": NonNeg => s.rows,
        "batches": NonNeg => s.batches,
        "opens": NonNeg => s.opens,
        "errors": NonNeg => s.errors,
        "open_wall_ns": NonNeg => s.open_wall_ns,
        "next_wall_ns": NonNeg => s.next_wall_ns,
        "records": NonNeg => s.cpu.records,
        "compares": NonNeg => s.cpu.compares,
        "hashes": NonNeg => s.cpu.hashes,
        "seq_reads": NonNeg => s.io.seq_reads,
        "random_reads": NonNeg => s.io.random_reads,
        "writes": NonNeg => s.io.writes,
        "mem_peak_bytes": NonNeg => s.mem_peak,
        "temp_pages_peak": NonNeg => s.temp_pages_peak,
        "simulated_seconds": NonNeg => s.simulated_seconds(config),
    }
}
json_block! {
    NET, fn write_net(w, net: &NetSpanStats) {
        "from": NonNeg => net.from,
        "to": NonNeg => net.to,
        "sent": Bool => net.sent,
        "bytes": NonNeg => net.bytes,
        "frames": NonNeg => net.frames,
        "retransmits": NonNeg => net.retransmits,
        "credit_stalls": NonNeg => net.credit_stalls,
        "credit_wait_ns": NonNeg => net.credit_wait_ns,
        "remote_span": Nullable(&Num) => net.remote_span,
    }
}
json_block! {
    AUDIT, fn write_audit(w, audit: &ChooseAudit) {
        "node": Num => audit.node,
        "preferred": Num => audit.preferred,
        "winner": Nullable(&Num) => audit.winner,
        "fallbacks": NonNeg => audit.fallbacks,
        "memory_pages": Nullable(&Num) => audit.memory_pages,
    }
}
json_block! {
    BIND, fn write_bind(w, bind: &(String, i64)) {
        "var": Str => bind.0.as_str(),
        "value": Num => bind.1,
    }
}
json_block! {
    ALTERNATIVE, fn write_alternative(w, alt: &AltAudit) {
        "index": Num => alt.index,
        "label": Str => alt.label.as_str(),
        "predicted_seconds": Num => alt.predicted_seconds,
    }
}
json_block! {
    ATTEMPT, fn write_attempt(w, attempt: &AttemptAudit) {
        "index": Num => attempt.index,
        "outcome": Str => attempt.outcome.as_str(),
    }
}
json_block! {
    REOPT_COUNTERS, fn write_reopt_counters(w, c: &ReoptCounters) {
        "checkpoints": NonNeg => c.checkpoints,
        "escapes": NonNeg => c.escapes,
        "replans_attempted": NonNeg => c.replans_attempted,
        "replans_adopted": NonNeg => c.replans_adopted,
        "replans_denied": NonNeg => c.replans_denied,
        "replan_failures": NonNeg => c.replan_failures,
        "memory_degradations": NonNeg => c.memory_degradations,
        "observed_arbitrations": NonNeg => c.observed_arbitrations,
        "fallbacks": NonNeg => c.fallbacks,
    }
}
json_block! {
    REOPT_EVENT, fn write_reopt_event(w, event: &ReoptEvent) {
        "kind": Str => event.kind.label(),
        "node": Nullable(&Num) => event.node.map(|n| n.0),
        "estimate_lo": Nullable(&Num) => event.estimate.map(|(lo, _)| lo),
        "estimate_hi": Nullable(&Num) => event.estimate.map(|(_, hi)| hi),
        "observed": Nullable(&Num) => event.observed,
        "detail": Str => event.detail.as_str(),
    }
}

/// Serializes a [`TraceReport`] as the machine-readable EXPLAIN ANALYZE
/// document. Top level: `{"explain_analyze": {"trace_id", "nodes": [...],
/// "audits": [...], "reopt": {...}}}`; nodes are the flat span list with
/// `parent` links, each carrying `estimate` (nullable), `actual`, `net`
/// (nullable) and the two drift flags (nullable booleans).
#[must_use]
pub fn explain_json(report: &TraceReport, config: &SystemConfig) -> String {
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.key("explain_analyze").obj(|w| {
            w.key("trace_id").val(report.trace_id);
            w.key("nodes").objs(&report.spans, |w, record| {
                write_node(w, record, config);
                w.key("estimate").opt_obj(record.estimate, write_estimate);
                w.key("actual")
                    .obj(|w| write_actual(w, &record.stats, config));
                w.key("net").opt_obj(record.net.as_ref(), write_net);
            });
            w.key("audits").objs(&report.audits, |w, audit| {
                write_audit(w, audit);
                w.key("binds").objs(&audit.bind_values, write_bind);
                w.key("alternatives")
                    .objs(&audit.alternatives, write_alternative);
                w.key("attempts").objs(&audit.attempts, write_attempt);
            });
            w.key("reopt").obj(|w| {
                w.key("counters")
                    .obj(|w| write_reopt_counters(w, &report.reopt.counters));
                w.key("events")
                    .objs(&report.reopt.events, write_reopt_event);
            });
        });
    });
    w.finish()
}

fn check_node(i: usize, node: &At) -> Result<(), String> {
    node.fields(NODE)?;
    if node.num("span").map(|span| span as usize) != Some(i) {
        return node.expected("span", "span ids to count up from 0");
    }
    if node
        .num("parent")
        .is_some_and(|parent| parent as usize >= i)
    {
        return node.expected("parent", "null or an earlier span id");
    }
    if let Some(est) = node.nullable_obj("estimate", false)? {
        est.fields(ESTIMATE)?;
        for (lo, hi) in [("card_lo", "card_hi"), ("cost_lo", "cost_hi")] {
            if est.num(lo) > est.num(hi) {
                return est.expected(lo, &format!("at most {hi}"));
            }
        }
    }
    node.obj("actual")?.fields(ACTUAL)?;
    if let Some(net) = node.nullable_obj("net", true)? {
        net.fields(NET)?;
    }
    Ok(())
}

fn check_audit(audit: &At) -> Result<(), String> {
    audit.fields(AUDIT)?;
    let alternatives = audit.arr("alternatives")?;
    if audit.num("preferred").map(|p| p as usize) >= Some(alternatives.len()) {
        return audit.expected("preferred", "the index of an alternative");
    }
    for (key, fields) in [
        ("binds", BIND),
        ("attempts", ATTEMPT),
        ("alternatives", ALTERNATIVE),
    ] {
        audit.arr(key)?.try_for_each(|item| item.fields(fields))?;
    }
    Ok(())
}

/// Validates an [`explain_json`] document against the field lists it was
/// written from, plus the rules no list can state: span ids count up from
/// 0, a parent precedes its child, interval bounds are ordered, and a
/// choose-plan's `preferred` names one of its alternatives. `trace_id`,
/// `start_ns`, `net` and `reopt` joined the document after its first
/// version and are checked when present.
///
/// # Errors
/// The first schema violation found, with the path it was found at.
pub fn validate_explain_json(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    let ea = At::root(&doc).obj("explain_analyze")?;
    ea.check("trace_id", Optional(&NonNeg))?;
    let nodes = ea.arr("nodes")?;
    if nodes.len() == 0 {
        return ea.expected("nodes", "at least one span");
    }
    for (i, node) in nodes.enumerate() {
        check_node(i, &node)?;
    }
    ea.arr("audits")?
        .try_for_each(|audit| check_audit(&audit))?;
    if let Some(reopt) = ea.nullable_obj("reopt", true)? {
        reopt.obj("counters")?.fields(REOPT_COUNTERS)?;
        reopt
            .arr("events")?
            .try_for_each(|event| event.fields(REOPT_EVENT))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_rejects_off_schema_documents() {
        assert!(validate_explain_json("{}").is_err());
        assert!(validate_explain_json(r#"{"explain_analyze":{"nodes":[],"audits":[]}}"#).is_err());
        let missing_actual = r#"{"explain_analyze":{"nodes":[{"span":0,"parent":null,"label":"x","kind":"x","node":null,"dop":1,"estimate":null,"card_drift":null,"cost_drift":null}],"audits":[]}}"#;
        assert!(validate_explain_json(missing_actual).is_err());
    }

    #[test]
    fn reopt_section_renders_and_validates() {
        use crate::reopt::{ReoptConfig, ReoptState};
        use crate::trace::{SpanId, SpanRecord, SpanStats};
        use dqep_interval::Interval;
        use dqep_plan::NodeId;
        let state = ReoptState::new(ReoptConfig::default());
        state.observe_checkpoint(NodeId(5), "Filter", Interval::new(20.0, 40.0), 700);
        assert!(state.request_replan(&crate::governor::ResourceGovernor::unlimited()));
        state.record_replan(NodeId(5), "re-arbitrated remaining plan");
        let mut report = TraceReport::default();
        report.spans.push(SpanRecord {
            id: SpanId(0),
            parent: None,
            label: "x".into(),
            kind: "x",
            node: Some(5),
            estimate: None,
            dop: 1,
            stats: SpanStats::default(),
            start_ns: 0,
            net: None,
        });
        report.reopt = state.report();
        let config = SystemConfig::paper_1994();
        let text = render_explain(&report, &config);
        assert!(text.contains("re-optimization:"), "{text}");
        assert!(text.contains("escape n5"), "{text}");
        assert!(text.contains("replans=1/1"), "{text}");
        let json = explain_json(&report, &config);
        validate_explain_json(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        assert!(json.contains("\"reopt\""));
        assert!(json.contains("\"kind\":\"escape\""));
    }

    #[test]
    fn drift_respects_eligibility() {
        use crate::trace::{NodeEstimate, SpanId, SpanRecord, SpanStats};
        use dqep_interval::Interval;
        let mut record = SpanRecord {
            id: SpanId(0),
            parent: None,
            label: "x".into(),
            kind: "x",
            node: Some(0),
            estimate: Some(NodeEstimate {
                card: Interval::new(10.0, 20.0),
                cost: Interval::new(0.0, 1.0),
            }),
            dop: 1,
            stats: SpanStats::default(),
            start_ns: 0,
            net: None,
        };
        assert_eq!(card_drift(&record), None, "never opened: not evaluated");
        record.stats.opens = 1;
        record.stats.rows = 15;
        assert_eq!(card_drift(&record), Some(false));
        record.stats.rows = 400;
        assert_eq!(card_drift(&record), Some(true));
        record.stats.errors = 1;
        assert_eq!(card_drift(&record), None, "errored spans are exempt");
    }
}
