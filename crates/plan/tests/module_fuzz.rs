//! Robustness: access-module decoding never panics on arbitrary bytes and
//! adopts nothing it has not checked.

use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};
use dqep_algebra::{CompareOp, HostVar, PhysicalOp, SelectPred};
use dqep_catalog::{AttrId, RelationId};
use dqep_cost::{Cost, PlanStats};
use dqep_interval::Interval;
use dqep_plan::{AccessModule, ModuleError, Plan};
use proptest::prelude::*;

/// What a successful decode owes its caller: a whole plan, and the bytes
/// it came from.
fn assert_adopted(module: &AccessModule, bytes: &[u8]) {
    module
        .plan()
        .check_invariants()
        .expect("a decoded module satisfies the plan invariants");
    let again = module.serialize();
    assert_eq!(&again[..], bytes, "encode(decode(bytes)) round-trips");
    let back = AccessModule::deserialize(again).expect("its own encoding decodes");
    assert_eq!(back.plan(), module.plan());
}

/// Filter over a scan under a choose-plan against an index scan: every
/// field kind the format has (relation, index, predicate, host variable,
/// intervals, child lists of 0, 1 and 2).
fn sample() -> Bytes {
    let mut p = Plan::new();
    let pred = SelectPred::unbound(
        AttrId { relation: RelationId(0), index: 0 },
        CompareOp::Lt,
        HostVar(0),
    );
    let scan = p.push(
        PhysicalOp::FileScan { relation: RelationId(0) },
        &[],
        &[],
        PlanStats::new(Interval::point(100.0), 512.0),
        Cost::point(0.1, 0.2),
    );
    let filter = p.push(
        PhysicalOp::Filter { predicate: pred },
        &[scan],
        &[],
        PlanStats::new(Interval::new(0.0, 100.0), 512.0),
        Cost::cpu_only(Interval::new(0.0, 0.01)),
    );
    let index = p.push(
        PhysicalOp::FilterBtreeScan {
            relation: RelationId(0),
            index: dqep_catalog::IndexId(0),
            predicate: pred,
        },
        &[],
        &[],
        PlanStats::new(Interval::new(0.0, 100.0), 512.0),
        Cost::io_only(Interval::new(0.008, 4.1)),
    );
    p.choose_plan(&[filter, index], Cost::point(0.001, 0.0));
    AccessModule::new(Arc::new(p)).serialize()
}

/// One stored node: operator bytes, then card `[1, 1]`, `row_bytes`, a
/// zero cost and the child ordinals.
fn raw_node(buf: &mut BytesMut, op: &[u8], row_bytes: f64, children: &[u32]) {
    buf.extend_from_slice(op);
    buf.put_f64(1.0);
    buf.put_f64(1.0);
    buf.put_f64(row_bytes);
    for _ in 0..4 {
        buf.put_f64(0.0);
    }
    buf.put_u16(children.len() as u16);
    for c in children {
        buf.put_u32(*c);
    }
}

const FILE_SCAN_R0: &[u8] = &[0, 0, 0, 0, 0];
/// Tag 4 and an empty predicate list.
const HASH_JOIN: &[u8] = &[4, 0, 0];
const CHOOSE_PLAN: &[u8] = &[8];

fn module(nodes: u32, body: impl FnOnce(&mut BytesMut)) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u32(nodes);
    body(&mut buf);
    buf.freeze()
}

#[test]
fn a_join_without_children_is_a_typed_error() {
    let image = module(1, |b| raw_node(b, HASH_JOIN, 512.0, &[]));
    assert_eq!(
        AccessModule::deserialize(image).unwrap_err(),
        ModuleError::BadArity { node: 0, children: 0 }
    );
}

#[test]
fn a_choose_plan_without_alternatives_is_a_typed_error() {
    let image = module(1, |b| raw_node(b, CHOOSE_PLAN, 512.0, &[]));
    assert_eq!(
        AccessModule::deserialize(image).unwrap_err(),
        ModuleError::BadArity { node: 0, children: 0 }
    );
    let one_alternative = module(2, |b| {
        raw_node(b, FILE_SCAN_R0, 512.0, &[]);
        raw_node(b, CHOOSE_PLAN, 512.0, &[0]);
    });
    assert_eq!(
        AccessModule::deserialize(one_alternative).unwrap_err(),
        ModuleError::BadArity { node: 1, children: 1 }
    );
}

#[test]
fn a_row_width_that_is_not_a_width_is_a_typed_error() {
    for row_bytes in [f64::NAN, f64::INFINITY, -1.0] {
        let image = module(1, |b| raw_node(b, FILE_SCAN_R0, row_bytes, &[]));
        assert_eq!(
            AccessModule::deserialize(image).unwrap_err(),
            ModuleError::BadNumber,
            "row_bytes {row_bytes}"
        );
    }
}

#[test]
fn trailing_bytes_are_a_typed_error() {
    let image = module(1, |b| {
        raw_node(b, FILE_SCAN_R0, 512.0, &[]);
        b.extend_from_slice(&[0xAB, 0xCD]);
    });
    assert_eq!(
        AccessModule::deserialize(image).unwrap_err(),
        ModuleError::TrailingBytes(2)
    );
    // The same module without them is adopted.
    let image = module(1, |b| raw_node(b, FILE_SCAN_R0, 512.0, &[]));
    assert_adopted(&AccessModule::deserialize(image.clone()).unwrap(), &image);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte strings either decode to a whole plan that encodes
    /// back to the same bytes or fail with a typed error — never panic.
    #[test]
    fn deserialize_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        if let Ok(module) = AccessModule::deserialize(Bytes::from(bytes.clone())) {
            assert_adopted(&module, &bytes);
        }
    }

    /// A valid module with one byte changed: what random bytes almost
    /// never reach — a damaged child count, ordinal, tag or number in an
    /// otherwise well-formed table.
    #[test]
    fn a_damaged_module_is_rejected_or_whole(at in 0usize..4096, to in any::<u8>()) {
        let mut bytes = sample().to_vec();
        let at = at % bytes.len();
        bytes[at] = to;
        if let Ok(module) = AccessModule::deserialize(Bytes::from(bytes.clone())) {
            assert_adopted(&module, &bytes);
        }
    }

    /// Truncating a valid module at any point yields an error, not a
    /// panic or a half-decoded success with a different structure.
    #[test]
    fn truncation_is_detected(cut in 1usize..400) {
        let full = sample();
        prop_assume!(cut < full.len());
        let truncated = full.slice(0..cut);
        prop_assert!(AccessModule::deserialize(truncated).is_err());
    }
}
