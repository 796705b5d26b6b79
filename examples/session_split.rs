//! Where a service request's time goes, read off the session's own phase
//! spans: a traced `QueryService::execute` (`Request::tracer`) records its
//! phases — admission, parse, bind, optimize (explore, search, finish),
//! decide, registry, execute — as laps of one clock that sum to the session
//! span, in the paper's units: optimize `e`, activate and decide `f`,
//! execute `g_i`. Over the benchmark's two service request lists —
//! `prepared_hot` (chains of 2–4 relations, six tuples each, memoized after
//! the first pass) and `adhoc_optimize` (chains of 4–10, four tuples each,
//! every text new and visited at a first binding, then a second that
//! compiles the dynamic plan in place) — it runs untraced and traced
//! passes in turns and prints, per kind of request, the mean µs of every
//! phase, the session span, `execute` traced and untraced, and what the
//! untraced `execute` spends beyond the session span.
//!
//! `taskset -c 1 cargo run --release --example session_split` (`-- --quick`:
//! 20 and 5 passes instead of 2 000 and 200, the CI run).
//! `examples/sample_profile.rs` samples the untraced ad-hoc loop.

use std::sync::Arc;
use std::time::Instant;

use dqep::catalog::{make_chain_catalog, SyntheticSpec, SystemConfig};
use dqep::executor::{SpanRecord, TraceReport, Tracer};
use dqep::service::{QueryService, Request, ServiceConfig};

/// A request's host-variable bindings, by name.
type Binds = Vec<(String, i64)>;

/// One of the two request lists and the service it runs on.
pub struct Shape {
    /// The benchmark workload whose requests these are.
    pub name: &'static str,
    /// The kinds of request a pass holds, in the order `pass` tags them:
    /// one, or a new text's first visit and second binding.
    kinds: &'static [&'static str],
    service: QueryService,
    /// Statement texts and their binding tuples.
    statements: Vec<(String, Vec<Binds>)>,
    /// Passes that fill the caches before the timed ones.
    warmup: usize,
    /// Timed passes.
    pub passes: usize,
}

impl Shape {
    /// Chains of `(relations, lo, hi)` over `paper(n, 7)`, `tuples`
    /// binding tuples each: tuple `t` binds variable `i` at the middle of
    /// a stratum of `[lo, hi]` (a Latin-square pairing), with the
    /// benchmark's `bound_for` rounding — these are its requests.
    fn new(n: usize, chains: &[(usize, f64, f64)], tuples: usize, config: ServiceConfig) -> Self {
        let spec = SyntheticSpec::paper(n, 7);
        let catalog = make_chain_catalog(&spec, SystemConfig::paper_1994());
        let statements = chains
            .iter()
            .map(|&(relations, lo, hi)| {
                let from: Vec<String> = (1..=relations).map(|i| format!("R{i}")).collect();
                let mut preds: Vec<String> =
                    (1..relations).map(|i| format!("R{i}.jr = R{}.jl", i + 1)).collect();
                preds.extend((1..=relations).map(|i| format!("R{i}.a < :v{i}")));
                let sql =
                    format!("SELECT * FROM {} WHERE {}", from.join(", "), preds.join(" AND "));
                let bind = |t: usize, i: usize| {
                    let diagonal =
                        if i.is_multiple_of(2) { t + i } else { 2 * tuples - 1 - t + i };
                    let share = lo + ((diagonal % tuples) as f64 + 0.5) / tuples as f64 * (hi - lo);
                    let domain = catalog.relations()[i].attributes[0].domain_size;
                    (format!("v{}", i + 1), (share * domain).round() as i64)
                };
                (sql, (0..tuples).map(|t| (0..relations).map(|i| bind(t, i)).collect()).collect())
            })
            .collect();
        let service = QueryService::new(catalog, ServiceConfig { workers: 1, ..config });
        Shape { name: "", kinds: &[], service, statements, warmup: 1, passes: 0 }
    }

    /// `prepared_hot` (shape and data seed 7).
    pub fn prepared_hot(quick: bool) -> Shape {
        let chains = [(2, 0.0, 1.0), (3, 0.0, 0.5), (4, 0.0, 0.3)];
        let config = ServiceConfig { data_seed: 7, ..ServiceConfig::default() };
        let passes = if quick { 20 } else { 2_000 };
        let kinds = &["memo hit"];
        Shape { name: "prepared_hot", kinds, passes, ..Shape::new(4, &chains, 6, config) }
    }

    /// `adhoc_optimize` (shape seed 7, data seed 1989, a 64-statement
    /// registry, which the warm-up passes fill).
    pub fn adhoc_optimize(quick: bool) -> Shape {
        let chains = [4, 6, 8, 10].map(|relations| (relations, 0.02, 0.15));
        let config =
            ServiceConfig { registry_capacity: 64, data_seed: 1989, ..ServiceConfig::default() };
        Shape {
            name: "adhoc_optimize",
            kinds: &["first visit", "second binding"],
            warmup: 4,
            passes: if quick { 5 } else { 200 },
            ..Shape::new(10, &chains, 4, config)
        }
    }

    /// The requests of one pass, `traced` or not, tagged by kind. An
    /// ad-hoc text is made new by a literal unique to the pass, the way and
    /// the tuple (`R1.jl >= -n` holds for every row), and visited at its
    /// tuple and then at the next one.
    fn pass(&self, pass: usize, traced: bool) -> Vec<(usize, Request)> {
        let request = |sql: String, binds: &Binds| Request {
            sql,
            binds: binds.clone(),
            tracer: traced.then(|| Arc::new(Tracer::new())),
            ..Request::default()
        };
        let mut out = Vec::new();
        for (sql, tuples) in &self.statements {
            for (t, binds) in tuples.iter().enumerate() {
                if self.kinds.len() == 1 {
                    out.push((0, request(sql.clone(), binds)));
                    continue;
                }
                let unique = 1 + out.len() + 1_000 * (2 * pass + usize::from(traced));
                let text = format!("{sql} AND R1.jl >= -{unique}");
                out.push((0, request(text.clone(), binds)));
                out.push((1, request(text, &tuples[(t + 1) % tuples.len()])));
            }
        }
        out
    }
}

/// What the timed passes measured for one kind of request, summed.
#[derive(Default)]
struct Tally {
    requests: u64,
    rows: u64,
    untraced_ns: u64,
    traced_ns: u64,
    session_ns: u64,
    /// Per phase, in order: its name, whether it is a part of the phase
    /// before it, and its nanoseconds.
    phases: Vec<(String, bool, u64)>,
}

fn wall(span: &SpanRecord) -> u64 {
    span.stats.open_wall_ns + span.stats.next_wall_ns
}

impl Tally {
    /// Adds a traced session's root, its phases in order and the parts a
    /// phase timed itself (not its operator spans). A phase is named
    /// without its counts: `Optimize [point, 35 plan nodes]` adds to
    /// `Optimize [point]`.
    fn add_trace(&mut self, report: &TraceReport) {
        let root = report.roots()[0];
        self.session_ns += wall(root);
        let parts = |phase| report.children_of(phase).into_iter().filter(|s| s.node.is_none());
        let spans = report.children_of(root.id).into_iter().flat_map(|phase| {
            std::iter::once((phase, false)).chain(parts(phase.id).map(|s| (s, true)))
        });
        for (at, (span, part)) in spans.enumerate() {
            let name = match span.label.split_once(", ") {
                Some((head, _)) => format!("{head}]"),
                None => span.label.clone(),
            };
            match self.phases.get_mut(at) {
                Some(row) if row.0 == name => row.2 += wall(span),
                _ => self.phases.insert(at, (name, part, wall(span))),
            }
        }
    }

    fn print(&self, kind: &str) {
        let n = self.requests.max(1) as f64;
        let us = |ns: u64| ns as f64 / 1e3 / n;
        println!("{kind}: {} requests, {:.1} rows a request", self.requests, self.rows as f64 / n);
        println!("  {:<40} {:>9.2} us", "Session (traced, its span)", us(self.session_ns));
        for (name, part, ns) in &self.phases {
            let name = if *part { format!("    {name}") } else { format!("  {name}") };
            println!("  {name:<40} {:>9.2} us", us(*ns));
        }
        println!("  {:<40} {:>9.2} us", "execute, traced", us(self.traced_ns));
        println!("  {:<40} {:>9.2} us", "execute, untraced", us(self.untraced_ns));
        let beyond = us(self.untraced_ns) - us(self.session_ns);
        println!("  {:<40} {beyond:>9.2} us", "untraced execute beyond the session");
    }
}

/// Runs pass `pass` of `shape`, `traced` or not, timing each `execute`,
/// and adds what it measured to `tallies` (one a kind), if given.
fn run_pass(shape: &Shape, pass: usize, traced: bool, mut tallies: Option<&mut [Tally]>) {
    for (kind, request) in shape.pass(pass, traced) {
        let tracer = request.tracer.clone();
        let started = Instant::now();
        let session = shape.service.execute(request).expect("fault-free request");
        let ns = started.elapsed().as_nanos() as u64;
        let Some(tally) = tallies.as_deref_mut().map(|t| &mut t[kind]) else { continue };
        match tracer {
            Some(tracer) => {
                tally.requests += 1;
                tally.traced_ns += ns;
                tally.add_trace(&tracer.report());
            }
            None => {
                tally.untraced_ns += ns;
                tally.rows += session.summary.rows;
            }
        }
    }
}

/// Runs `shape`'s warm-up passes, then its timed passes, of the untraced
/// loop alone (what `sample_profile` samples).
pub fn untraced_loop(shape: &Shape) {
    for pass in 0..shape.warmup + shape.passes {
        run_pass(shape, pass, false, None);
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    for shape in [Shape::prepared_hot(quick), Shape::adhoc_optimize(quick)] {
        println!("{}: {} passes a way, untraced and traced in turns\n", shape.name, shape.passes);
        let mut tallies: Vec<Tally> = shape.kinds.iter().map(|_| Tally::default()).collect();
        for pass in 0..shape.warmup + shape.passes {
            for traced in [false, true] {
                let timed = (pass >= shape.warmup).then_some(&mut tallies[..]);
                run_pass(&shape, pass, traced, timed);
            }
        }
        for (kind, tally) in shape.kinds.iter().zip(&tallies) {
            tally.print(kind);
            println!();
        }
    }
}
