//! SQL front end → optimizer → executor, end to end on stored data.

use dqep::cost::Environment;
use dqep::optimizer::Optimizer;
use dqep::sql::parse_query;
use dqep::storage::StoredDatabase;

#[path = "common/exec.rs"]
mod exec;
use exec::execute;

fn fixture() -> (dqep::catalog::Catalog, StoredDatabase) {
    let cat = dqep::catalog::CatalogBuilder::new(dqep::catalog::SystemConfig::paper_1994())
        .relation("orders", 600, 512, |r| {
            r.attr("amount", 600.0)
                .attr("customer", 150.0)
                .btree("amount", false)
                .btree("customer", false)
        })
        .relation("customers", 300, 512, |r| {
            r.attr("id", 150.0).attr("region", 8.0).btree("id", false)
        })
        .build()
        .unwrap();
    let db = StoredDatabase::generate(&cat, 404);
    (cat, db)
}

/// Reference row count computed by brute force over heap scans.
fn ground_truth(
    cat: &dqep::catalog::Catalog,
    db: &StoredDatabase,
    amount_lt: Option<i64>,
    region_eq: Option<i64>,
    join: bool,
) -> u64 {
    let o = db.table(cat.relation_by_name("orders").unwrap().id);
    let c = db.table(cat.relation_by_name("customers").unwrap().id);
    let orders: Vec<Vec<i64>> = o.heap.scan().map(|r| o.decode(&r.unwrap())).collect();
    let customers: Vec<Vec<i64>> = c.heap.scan().map(|r| c.decode(&r.unwrap())).collect();
    let mut n = 0;
    for ord in &orders {
        if let Some(v) = amount_lt {
            if ord[0] >= v {
                continue;
            }
        }
        if !join {
            n += 1;
            continue;
        }
        for cust in &customers {
            if cust[0] != ord[1] {
                continue;
            }
            if let Some(r) = region_eq {
                if cust[1] != r {
                    continue;
                }
            }
            n += 1;
        }
    }
    n
}

#[test]
fn sql_round_trips_match_ground_truth() {
    let (cat, db) = fixture();
    let env = Environment::dynamic_compile_time(&cat.config);

    struct Case {
        sql: &'static str,
        binds: Vec<(&'static str, i64)>,
        amount_lt: Option<i64>,
        region_eq: Option<i64>,
        join: bool,
    }
    let cases = [
        Case {
            sql: "SELECT * FROM orders WHERE orders.amount < :x",
            binds: vec![("x", 75)],
            amount_lt: Some(75),
            region_eq: None,
            join: false,
        },
        Case {
            sql: "SELECT * FROM orders WHERE orders.amount < 400",
            binds: vec![],
            amount_lt: Some(400),
            region_eq: None,
            join: false,
        },
        Case {
            sql: "SELECT * FROM orders, customers \
                  WHERE orders.customer = customers.id AND orders.amount < :x",
            binds: vec![("x", 200)],
            amount_lt: Some(200),
            region_eq: None,
            join: true,
        },
        Case {
            sql: "SELECT * FROM orders, customers \
                  WHERE orders.customer = customers.id \
                  AND orders.amount < :x AND customers.region = :r",
            binds: vec![("x", 550), ("r", 3)],
            amount_lt: Some(550),
            region_eq: Some(3),
            join: true,
        },
        Case {
            sql: "SELECT * FROM customers, orders \
                  WHERE customers.id = orders.customer ORDER BY customers.region",
            binds: vec![],
            amount_lt: None,
            region_eq: None,
            join: true,
        },
    ];

    for case in &cases {
        let q = parse_query(case.sql, &cat).unwrap_or_else(|e| panic!("{}: {e}", case.sql));
        let plan = Optimizer::new(&cat, &env)
            .optimize_with_props(&q.expr, q.required_props())
            .unwrap()
            .plan;
        let bindings = q.bindings(&case.binds).unwrap();
        let summary = execute(&plan, &db, &cat, &env, &bindings);
        let expected = ground_truth(&cat, &db, case.amount_lt, case.region_eq, case.join);
        assert_eq!(summary.rows, expected, "query: {}", case.sql);
    }
}

#[test]
fn sql_static_and_dynamic_agree_on_results() {
    let (cat, db) = fixture();
    let q = parse_query(
        "SELECT * FROM orders, customers \
         WHERE orders.customer = customers.id AND orders.amount < :x",
        &cat,
    )
    .unwrap();
    let static_env = Environment::static_compile_time(&cat.config);
    let dynamic_env = Environment::dynamic_compile_time(&cat.config);
    let sp = Optimizer::new(&cat, &static_env).optimize(&q.expr).unwrap().plan;
    let dp = Optimizer::new(&cat, &dynamic_env).optimize(&q.expr).unwrap().plan;
    for x in [5i64, 120, 480] {
        let b = q.bindings(&[("x", x)]).unwrap();
        let s = execute(&sp, &db, &cat, &static_env, &b);
        let d = execute(&dp, &db, &cat, &dynamic_env, &b);
        assert_eq!(s.rows, d.rows, ":x = {x}");
        // And the dynamic plan is never slower in simulated time.
        assert!(
            d.simulated_seconds(&cat.config) <= s.simulated_seconds(&cat.config) + 1e-9,
            ":x = {x}"
        );
    }
}
