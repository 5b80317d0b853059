//! Engine conformance suite (DESIGN.md §4.12): the storage engine must
//! agree, op for op, with a `BTreeMap` reference model over a random op
//! sequence, including checkpoint/restore round-trips; any divergence
//! (return values, scan contents, image contents) fails the property.
//! Torn checkpoint images must be rejected without touching engine state.

use std::collections::BTreeMap;

use proptest::prelude::*;

use mantle_engine::{
    decode_image, dir_upper_bound, scan_dir, scan_versions, update_versions, BTreeEngine, WriteOp,
};
use mantle_store::RowKey;
use mantle_tafdb::Row;
use mantle_types::record::ATTR_ROW_NAME;
use mantle_types::{AttrDelta, DirAttrMeta, InodeId, TxnId};

fn arb_key() -> impl Strategy<Value = RowKey> {
    (
        0u64..5,
        prop::sample::select(vec!["a", "b", ATTR_ROW_NAME, "c"]),
        0u64..4,
    )
        .prop_map(|(pid, name, ts)| RowKey {
            pid: InodeId(pid),
            name: name.into(),
            ts: TxnId(ts),
        })
}

fn arb_row() -> impl Strategy<Value = Row> {
    prop_oneof![
        (0u64..50, 0u32..50).prop_map(|(now, owner)| Row::DirAttr(DirAttrMeta::new(now, owner))),
        (0i64..9, 0u64..9).prop_map(|(e, m)| Row::Delta(AttrDelta {
            nlink: 0,
            entries: e,
            mtime: m,
        })),
        (0u64..99).prop_map(|id| Row::DirAccess {
            id: InodeId(id),
            permission: mantle_types::Permission::ALL,
        }),
    ]
}

#[derive(Clone, Debug)]
enum Op {
    Put(RowKey, Row),
    PutIfAbsent(RowKey, Row),
    Delete(RowKey),
    /// Merge-style read-modify-write (the `MergeAttr` shape).
    Update(RowKey, Row),
    /// An atomic multi-op write batch.
    Batch(Vec<(bool, RowKey, Row)>),
    /// Atomic purge of the non-base versions of `(pid, /_ATTR)` — the
    /// `PurgeDeltas` shape, through `update_range`.
    PurgeVersions(u64),
    ScanDir(u64, &'static str, usize),
    ScanVersions(u64, &'static str),
    /// checkpoint → restore onto the same engine must round-trip.
    CheckpointRestore,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_key(), arb_row()).prop_map(|(k, v)| Op::Put(k, v)),
        (arb_key(), arb_row()).prop_map(|(k, v)| Op::PutIfAbsent(k, v)),
        arb_key().prop_map(Op::Delete),
        (arb_key(), arb_row()).prop_map(|(k, v)| Op::Update(k, v)),
        prop::collection::vec((any::<bool>(), arb_key(), arb_row()), 1..5).prop_map(Op::Batch),
        (0u64..5).prop_map(Op::PurgeVersions),
        (0u64..5, prop::sample::select(vec!["", "a", "b"]), 0usize..6)
            .prop_map(|(p, f, l)| Op::ScanDir(p, f, l)),
        ((0u64..5), prop::sample::select(vec!["a", ATTR_ROW_NAME]))
            .prop_map(|(p, n)| Op::ScanVersions(p, n)),
        Just(Op::CheckpointRestore),
    ]
}

/// Model equivalents of the free-function scan helpers.
fn model_scan_dir(
    model: &BTreeMap<RowKey, Row>,
    pid: u64,
    from: &str,
    limit: usize,
) -> Vec<(RowKey, Row)> {
    let lo = RowKey::base(InodeId(pid), from);
    model
        .range((std::ops::Bound::Included(lo), dir_upper_bound(InodeId(pid))))
        .take(limit)
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

fn model_scan_versions(model: &BTreeMap<RowKey, Row>, pid: u64, name: &str) -> Vec<(RowKey, Row)> {
    let lo = RowKey::base(InodeId(pid), name);
    let hi = RowKey::delta(InodeId(pid), name, TxnId(u64::MAX));
    model
        .range(lo..=hi)
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

fn run_conformance(ops: &[Op]) -> Result<(), TestCaseError> {
    let engine = BTreeEngine::<Row>::new();
    let mut model: BTreeMap<RowKey, Row> = BTreeMap::new();
    for op in ops {
        match op {
            Op::Put(k, v) => {
                prop_assert_eq!(
                    engine.put(k.clone(), v.clone()),
                    model.insert(k.clone(), v.clone()),
                    "put prev"
                );
            }
            Op::PutIfAbsent(k, v) => {
                let fresh = engine.put_if_absent(k.clone(), v.clone());
                prop_assert_eq!(fresh, !model.contains_key(k), "put_if_absent");
                model.entry(k.clone()).or_insert_with(|| v.clone());
            }
            Op::Delete(k) => {
                prop_assert_eq!(engine.delete(k), model.remove(k).is_some(), "delete");
            }
            Op::Update(k, v) => {
                // Merge: bump a DirAttr in place, insert `v` when absent,
                // leave non-attr rows untouched — and report what happened.
                let f = |cur: Option<&Row>| -> (Option<Row>, bool) {
                    match cur {
                        Some(Row::DirAttr(a)) => {
                            let mut a = a.clone();
                            a.entries += 1;
                            (Some(Row::DirAttr(a)), true)
                        }
                        Some(other) => (Some(other.clone()), false),
                        None => (Some(v.clone()), true),
                    }
                };
                let got = engine.update(k, f);
                let (next, want) = f(model.get(k));
                match next {
                    Some(row) => {
                        model.insert(k.clone(), row);
                    }
                    None => {
                        model.remove(k);
                    }
                }
                prop_assert_eq!(got, want, "update report");
            }
            Op::Batch(items) => {
                let batch: Vec<WriteOp<Row>> = items
                    .iter()
                    .map(|(is_put, k, v)| {
                        if *is_put {
                            WriteOp::Put(k.clone(), v.clone())
                        } else {
                            WriteOp::Delete(k.clone())
                        }
                    })
                    .collect();
                engine.apply(batch);
                for (is_put, k, v) in items {
                    if *is_put {
                        model.insert(k.clone(), v.clone());
                    } else {
                        model.remove(k);
                    }
                }
            }
            Op::PurgeVersions(pid) => {
                update_versions(&engine, InodeId(*pid), ATTR_ROW_NAME, |rows| {
                    rows.iter()
                        .filter(|(k, _)| k.ts != TxnId::BASE)
                        .map(|(k, _)| WriteOp::Delete(k.clone()))
                        .collect()
                });
                let doomed: Vec<RowKey> = model_scan_versions(&model, *pid, ATTR_ROW_NAME)
                    .into_iter()
                    .filter(|(k, _)| k.ts != TxnId::BASE)
                    .map(|(k, _)| k)
                    .collect();
                for k in doomed {
                    model.remove(&k);
                }
            }
            Op::ScanDir(pid, from, limit) => {
                prop_assert_eq!(
                    scan_dir(&engine, InodeId(*pid), from, *limit),
                    model_scan_dir(&model, *pid, from, *limit),
                    "scan_dir"
                );
            }
            Op::ScanVersions(pid, vname) => {
                prop_assert_eq!(
                    scan_versions(&engine, InodeId(*pid), vname),
                    model_scan_versions(&model, *pid, vname),
                    "scan_versions"
                );
            }
            Op::CheckpointRestore => {
                let image = engine.checkpoint();
                let decoded = decode_image::<Row>(&image).expect("fresh image decodes");
                let want: Vec<(RowKey, Row)> =
                    model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                prop_assert_eq!(&decoded, &want, "image contents");
                prop_assert!(engine.restore(&image).is_some(), "restore of a good image");
                prop_assert_eq!(engine.export_rows(), want, "post-restore rows");
            }
        }
        // Cheap standing invariant after every op.
        prop_assert_eq!(engine.len(), model.len(), "len");
    }
    let want: Vec<(RowKey, Row)> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    prop_assert_eq!(engine.export_rows(), want, "final export");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The engine agrees with the model on every op of a random sequence.
    #[test]
    fn engine_matches_model(ops in prop::collection::vec(arb_op(), 1..60)) {
        run_conformance(&ops)?;
    }

    /// A checkpoint image with any single corrupted byte is rejected by
    /// restore, leaving the engine state untouched.
    #[test]
    fn torn_images_are_rejected(
        rows in prop::collection::vec((arb_key(), arb_row()), 1..12),
        at_byte in 0usize..4096,
    ) {
        let engine = BTreeEngine::<Row>::new();
        for (k, v) in &rows {
            engine.put(k.clone(), v.clone());
        }
        let before = engine.export_rows();
        let mut image = engine.checkpoint();
        let idx = at_byte % image.len();
        image[idx] ^= 0xFF;
        prop_assert!(engine.restore(&image).is_none(), "corrupted image accepted");
        prop_assert_eq!(engine.export_rows(), before, "failed restore mutated the engine");
    }
}
