//! A long-lived service must not grow with the spills it has served.
//!
//! This case reads the *process's* resident set, so it lives in a test
//! binary of its own: nothing else allocates beside it.

use dqep::catalog::{CatalogBuilder, SystemConfig};
use dqep::service::{QueryService, Request, ServiceConfig};

fn resident_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// Two hundred spilling requests through one worker: every request holds
/// the temp pages the first one held — a leak would lift each request's
/// high-water by what the one before left behind — and the resident set
/// stops growing once the allocator has warmed up. (Before temp pages
/// were reclaimed these requests left their 724 and 437 pages on the
/// worker's disk, 200 MiB over the last 180 of them.)
#[test]
fn two_hundred_spilling_requests_leave_the_resident_set_where_it_was() {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("fact", 4000, 256, |r| {
            r.attr("a", 4000.0).attr("j", 2000.0).btree("a", false)
        })
        .relation("dim", 2000, 256, |r| {
            r.attr("a", 2000.0).attr("j", 2000.0).btree("j", false)
        })
        .build()
        .unwrap();
    let svc = QueryService::new(
        catalog,
        ServiceConfig { workers: 1, data_seed: 7, ..ServiceConfig::default() },
    );
    let statements = [
        "SELECT * FROM fact, dim WHERE fact.j = dim.j AND fact.a < :x",
        "SELECT * FROM fact WHERE fact.a < :x ORDER BY fact.j",
    ];
    let mut peaks = [0u64; 2];
    let mut warm = 0;
    for k in 0..200 {
        let which = k % statements.len();
        let mut request = Request::new(statements[which], &[("x", 3000)]);
        request.memory_pages = Some(64.0);
        let session = svc.execute(request).unwrap();
        let peak = session.summary.temp_pages_peak;
        assert!(peak > 0, "request {k} did not spill");
        if k < statements.len() {
            peaks[which] = peak;
        }
        assert_eq!(peak, peaks[which], "request {k}: temp pages of an earlier request survive");
        if k == 19 {
            warm = resident_kib();
        }
    }
    let grown = resident_kib().saturating_sub(warm);
    assert!(grown < 16 * 1024, "resident set grew by {grown} KiB over the last 180 requests");

    let report = svc.metrics();
    let high_water = report.get(dqep::service::Metric::TempPagesHighWater);
    assert_eq!(high_water, peaks[0].max(peaks[1]));
    let prom = report.to_prometheus();
    dqep::service::lint_prometheus(&prom).unwrap();
    assert!(prom.contains(&format!("dqep_temp_pages_high_water {high_water}")));
    assert!(report.to_json().contains("\"temp_pages_high_water\""));
}
