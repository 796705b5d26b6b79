//! EXPLAIN ANALYZE: rendering a [`TraceReport`] with interval estimates
//! next to actuals, drift flags, and the choose-plan audit trail.
//!
//! The paper's correctness condition is that the optimizer's interval
//! estimates *bracket* run-time behavior — `[lo, hi]` cardinality and
//! cost intervals are supposed to contain the actuals for any binding in
//! the modeled domain. [`card_drift`] / [`cost_drift`] test exactly that
//! per node, and the renderers flag violations (`DRIFT`). Output comes in
//! two shapes: [`render_explain`] for humans and [`explain_json`] for
//! machines; [`validate_explain_json`] re-parses the latter with the
//! bundled minimal JSON parser (no external JSON crate in this build) and
//! checks the schema, which is what the CI smoke job runs.

use dqep_catalog::SystemConfig;
use std::fmt::Write as _;

use crate::trace::{ChooseAudit, SpanRecord, TraceReport};

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

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A finite float as a JSON number (`null` for NaN/infinity, which JSON
/// cannot represent).
fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn jopt(v: Option<bool>) -> &'static str {
    match v {
        Some(true) => "true",
        Some(false) => "false",
        None => "null",
    }
}

/// Serializes a [`TraceReport`] as the machine-readable EXPLAIN ANALYZE
/// document (hand-rolled — this build has no JSON crate). Top level:
/// `{"explain_analyze": {"nodes": [...], "audits": [...]}}`; nodes are
/// the flat span list with `parent` links, each carrying `estimate`
/// (nullable), `actual`, and the two drift flags (nullable booleans).
#[must_use]
pub fn explain_json(report: &TraceReport, config: &SystemConfig) -> String {
    let mut out = format!(
        "{{\"explain_analyze\":{{\"trace_id\":{},\"nodes\":[",
        report.trace_id
    );
    for (i, record) in report.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let s = &record.stats;
        let _ = write!(
            out,
            "{{\"span\":{},\"parent\":{},\"label\":\"{}\",\"kind\":\"{}\",\"node\":{},\"dop\":{}",
            record.id.0,
            record
                .parent
                .map_or("null".into(), |p| p.0.to_string()),
            esc(&record.label),
            esc(record.kind),
            record.node.map_or("null".into(), |n| n.to_string()),
            record.dop,
        );
        match record.estimate {
            Some(est) => {
                let _ = write!(
                    out,
                    ",\"estimate\":{{\"card_lo\":{},\"card_hi\":{},\"cost_lo\":{},\"cost_hi\":{}}}",
                    jnum(est.card.lo()),
                    jnum(est.card.hi()),
                    jnum(est.cost.lo()),
                    jnum(est.cost.hi()),
                );
            }
            None => out.push_str(",\"estimate\":null"),
        }
        let _ = write!(
            out,
            ",\"actual\":{{\"rows\":{},\"batches\":{},\"opens\":{},\"errors\":{},\
             \"open_wall_ns\":{},\"next_wall_ns\":{},\
             \"records\":{},\"compares\":{},\"hashes\":{},\
             \"seq_reads\":{},\"random_reads\":{},\"writes\":{},\
             \"mem_peak_bytes\":{},\"temp_pages_peak\":{},\"simulated_seconds\":{}}}",
            s.rows,
            s.batches,
            s.opens,
            s.errors,
            s.open_wall_ns,
            s.next_wall_ns,
            s.cpu.records,
            s.cpu.compares,
            s.cpu.hashes,
            s.io.seq_reads,
            s.io.random_reads,
            s.io.writes,
            s.mem_peak,
            s.temp_pages_peak,
            jnum(s.simulated_seconds(config)),
        );
        let _ = write!(out, ",\"start_ns\":{}", record.start_ns);
        match &record.net {
            Some(net) => {
                let _ = write!(
                    out,
                    ",\"net\":{{\"from\":{},\"to\":{},\"sent\":{},\"bytes\":{},\"frames\":{},\
                     \"retransmits\":{},\"credit_stalls\":{},\"credit_wait_ns\":{},\
                     \"remote_span\":{}}}",
                    net.from,
                    net.to,
                    net.sent,
                    net.bytes,
                    net.frames,
                    net.retransmits,
                    net.credit_stalls,
                    net.credit_wait_ns,
                    net.remote_span.map_or("null".into(), |r| r.to_string()),
                );
            }
            None => out.push_str(",\"net\":null"),
        }
        let _ = write!(
            out,
            ",\"card_drift\":{},\"cost_drift\":{}}}",
            jopt(card_drift(record)),
            jopt(cost_drift(record, config)),
        );
    }
    out.push_str("],\"audits\":[");
    for (i, audit) in report.audits.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"node\":{},\"preferred\":{},\"winner\":{},\"fallbacks\":{},\"memory_pages\":{}",
            audit.node,
            audit.preferred,
            audit.winner.map_or("null".into(), |w| w.to_string()),
            audit.fallbacks,
            audit.memory_pages.map_or("null".into(), jnum),
        );
        out.push_str(",\"binds\":[");
        for (j, (var, value)) in audit.bind_values.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"var\":\"{}\",\"value\":{value}}}", esc(var));
        }
        out.push_str("],\"alternatives\":[");
        for (j, alt) in audit.alternatives.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"index\":{},\"label\":\"{}\",\"predicted_seconds\":{}}}",
                alt.index,
                esc(&alt.label),
                jnum(alt.predicted_seconds),
            );
        }
        out.push_str("],\"attempts\":[");
        for (j, attempt) in audit.attempts.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"index\":{},\"outcome\":\"{}\"}}",
                attempt.index,
                esc(&attempt.outcome)
            );
        }
        out.push_str("]}");
    }
    out.push_str("],\"reopt\":{\"counters\":{");
    let c = &report.reopt.counters;
    let _ = write!(
        out,
        "\"checkpoints\":{},\"escapes\":{},\"replans_attempted\":{},\"replans_adopted\":{},\
         \"replans_denied\":{},\"replan_failures\":{},\"memory_degradations\":{},\
         \"observed_arbitrations\":{},\"fallbacks\":{}",
        c.checkpoints,
        c.escapes,
        c.replans_attempted,
        c.replans_adopted,
        c.replans_denied,
        c.replan_failures,
        c.memory_degradations,
        c.observed_arbitrations,
        c.fallbacks,
    );
    out.push_str("},\"events\":[");
    for (i, event) in report.reopt.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"kind\":\"{}\",\"node\":{},\"estimate_lo\":{},\"estimate_hi\":{},\
             \"observed\":{},\"detail\":\"{}\"}}",
            event.kind.label(),
            event.node.map_or("null".into(), |n| n.0.to_string()),
            event.estimate.map_or("null".into(), |(lo, _)| jnum(lo)),
            event.estimate.map_or("null".into(), |(_, hi)| jnum(hi)),
            event.observed.map_or("null".into(), jnum),
            esc(&event.detail),
        );
    }
    out.push_str("]}}}");
    out
}

/// A parsed JSON value — the minimal model the schema checker needs.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, keys in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => {
                members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The number, if this is a number.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), String> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", expected as char)))
        }
    }

    fn eat_word(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_word("null").map(|()| JsonValue::Null),
            Some(b't') => self.eat_word("true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => self.eat_word("false").map(|()| JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Num)
            .ok_or_else(|| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("malformed \\u escape"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("malformed escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the document came from a
                    // &str, so boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("unterminated string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a JSON document. Minimal but complete for the subset this crate
/// emits (and standard JSON generally: nested values, escapes, exponent
/// numbers).
///
/// # Errors
/// A human-readable message with the byte offset of the first problem.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing content"));
    }
    Ok(value)
}

fn require_num(obj: &JsonValue, key: &str, ctx: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(JsonValue::as_num)
        .ok_or_else(|| format!("{ctx}: missing numeric \"{key}\""))
}

fn require_nullable_bool(obj: &JsonValue, key: &str, ctx: &str) -> Result<(), String> {
    match obj.get(key) {
        Some(JsonValue::Bool(_) | JsonValue::Null) => Ok(()),
        _ => Err(format!("{ctx}: \"{key}\" must be a boolean or null")),
    }
}

/// Validates an [`explain_json`] document against the expected schema —
/// the tiny checker the CI observability smoke job runs on the CLI's
/// `--explain-analyze --json` output.
///
/// # Errors
/// The first schema violation found, as a human-readable message.
pub fn validate_explain_json(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    let ea = doc
        .get("explain_analyze")
        .ok_or("missing top-level \"explain_analyze\" object")?;
    let nodes = ea
        .get("nodes")
        .and_then(JsonValue::as_arr)
        .ok_or("\"explain_analyze.nodes\" must be an array")?;
    if nodes.is_empty() {
        return Err("\"nodes\" must not be empty".into());
    }
    if let Some(v) = ea.get("trace_id") {
        match v.as_num() {
            Some(n) if n >= 0.0 => {}
            _ => return Err("\"trace_id\" must be a non-negative number".into()),
        }
    }
    for (i, node) in nodes.iter().enumerate() {
        let ctx = format!("nodes[{i}]");
        let span = require_num(node, "span", &ctx)?;
        if span as usize != i {
            return Err(format!("{ctx}: span id {span} out of order"));
        }
        node.get("label")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{ctx}: missing string \"label\""))?;
        node.get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{ctx}: missing string \"kind\""))?;
        match node.get("parent") {
            Some(JsonValue::Null) => {}
            Some(JsonValue::Num(p)) if (*p as usize) < i => {}
            _ => return Err(format!("{ctx}: \"parent\" must be null or an earlier span id")),
        }
        match node.get("estimate") {
            Some(JsonValue::Null) => {}
            Some(est @ JsonValue::Obj(_)) => {
                let lo = require_num(est, "card_lo", &ctx)?;
                let hi = require_num(est, "card_hi", &ctx)?;
                if lo > hi {
                    return Err(format!("{ctx}: card_lo {lo} > card_hi {hi}"));
                }
                let lo = require_num(est, "cost_lo", &ctx)?;
                let hi = require_num(est, "cost_hi", &ctx)?;
                if lo > hi {
                    return Err(format!("{ctx}: cost_lo {lo} > cost_hi {hi}"));
                }
            }
            _ => return Err(format!("{ctx}: \"estimate\" must be an object or null")),
        }
        let actual = node
            .get("actual")
            .ok_or_else(|| format!("{ctx}: missing \"actual\""))?;
        for key in [
            "rows",
            "batches",
            "opens",
            "errors",
            "open_wall_ns",
            "next_wall_ns",
            "records",
            "compares",
            "hashes",
            "seq_reads",
            "random_reads",
            "writes",
            "mem_peak_bytes",
            "temp_pages_peak",
            "simulated_seconds",
        ] {
            let v = require_num(actual, key, &ctx)?;
            if v < 0.0 {
                return Err(format!("{ctx}: \"{key}\" is negative"));
            }
        }
        require_nullable_bool(node, "card_drift", &ctx)?;
        require_nullable_bool(node, "cost_drift", &ctx)?;
        // Distributed-tracing fields are additive: validated when present.
        if let Some(v) = node.get("start_ns") {
            match v.as_num() {
                Some(n) if n >= 0.0 => {}
                _ => return Err(format!("{ctx}: \"start_ns\" must be a non-negative number")),
            }
        }
        match node.get("net") {
            None | Some(JsonValue::Null) => {}
            Some(net @ JsonValue::Obj(_)) => {
                for key in [
                    "from",
                    "to",
                    "bytes",
                    "frames",
                    "retransmits",
                    "credit_stalls",
                    "credit_wait_ns",
                ] {
                    let v = require_num(net, key, &format!("{ctx}.net"))?;
                    if v < 0.0 {
                        return Err(format!("{ctx}.net: \"{key}\" is negative"));
                    }
                }
                match net.get("sent") {
                    Some(JsonValue::Bool(_)) => {}
                    _ => return Err(format!("{ctx}.net: \"sent\" must be a boolean")),
                }
                match net.get("remote_span") {
                    Some(JsonValue::Null | JsonValue::Num(_)) => {}
                    _ => {
                        return Err(format!(
                            "{ctx}.net: \"remote_span\" must be a number or null"
                        ))
                    }
                }
            }
            _ => return Err(format!("{ctx}: \"net\" must be an object or null")),
        }
    }
    let audits = ea
        .get("audits")
        .and_then(JsonValue::as_arr)
        .ok_or("\"explain_analyze.audits\" must be an array")?;
    for (i, audit) in audits.iter().enumerate() {
        let ctx = format!("audits[{i}]");
        require_num(audit, "node", &ctx)?;
        let preferred = require_num(audit, "preferred", &ctx)?;
        let alts = audit
            .get("alternatives")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| format!("{ctx}: missing \"alternatives\" array"))?;
        if alts.is_empty() {
            return Err(format!("{ctx}: \"alternatives\" must not be empty"));
        }
        if preferred as usize >= alts.len() {
            return Err(format!("{ctx}: preferred {preferred} out of range"));
        }
        for (j, alt) in alts.iter().enumerate() {
            let actx = format!("{ctx}.alternatives[{j}]");
            require_num(alt, "index", &actx)?;
            require_num(alt, "predicted_seconds", &actx)?;
            alt.get("label")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("{actx}: missing string \"label\""))?;
        }
        let attempts = audit
            .get("attempts")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| format!("{ctx}: missing \"attempts\" array"))?;
        for (j, attempt) in attempts.iter().enumerate() {
            let actx = format!("{ctx}.attempts[{j}]");
            require_num(attempt, "index", &actx)?;
            attempt
                .get("outcome")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("{actx}: missing string \"outcome\""))?;
        }
        match audit.get("winner") {
            Some(JsonValue::Null | JsonValue::Num(_)) => {}
            _ => return Err(format!("{ctx}: \"winner\" must be a number or null")),
        }
        let binds = audit
            .get("binds")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| format!("{ctx}: missing \"binds\" array"))?;
        for (j, bind) in binds.iter().enumerate() {
            let bctx = format!("{ctx}.binds[{j}]");
            bind.get("var")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("{bctx}: missing string \"var\""))?;
            require_num(bind, "value", &bctx)?;
        }
    }
    // The re-optimization section is additive: absent in documents from
    // pre-reopt builds, validated when present.
    if let Some(reopt) = ea.get("reopt") {
        let counters = reopt
            .get("counters")
            .ok_or("\"reopt.counters\" must be an object")?;
        for key in [
            "checkpoints",
            "escapes",
            "replans_attempted",
            "replans_adopted",
            "replans_denied",
            "replan_failures",
            "memory_degradations",
            "observed_arbitrations",
            "fallbacks",
        ] {
            let v = require_num(counters, key, "reopt.counters")?;
            if v < 0.0 {
                return Err(format!("reopt.counters: \"{key}\" is negative"));
            }
        }
        let events = reopt
            .get("events")
            .and_then(JsonValue::as_arr)
            .ok_or("\"reopt.events\" must be an array")?;
        for (i, event) in events.iter().enumerate() {
            let ctx = format!("reopt.events[{i}]");
            event
                .get("kind")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("{ctx}: missing string \"kind\""))?;
            event
                .get("detail")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("{ctx}: missing string \"detail\""))?;
            for key in ["node", "estimate_lo", "estimate_hi", "observed"] {
                match event.get(key) {
                    Some(JsonValue::Null | JsonValue::Num(_)) => {}
                    _ => return Err(format!("{ctx}: \"{key}\" must be a number or null")),
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_basic_documents() {
        let doc = r#"{"a": [1, -2.5, 1e3], "b": {"c": null, "d": true}, "e": "x\"\nA"}"#;
        let v = parse_json(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_num(), Some(1000.0));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\"\nA"));
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "\"unterminated", "1 2"] {
            assert!(parse_json(bad).is_err(), "{bad:?} should not parse");
        }
    }

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
        let state = ReoptState::new(ReoptConfig {
            backoff_base_ms: 0,
            ..ReoptConfig::default()
        });
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
