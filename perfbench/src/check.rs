//! End-of-run output checks against the acknowledged writes.
//! (Each objstat reply is checked against the loaded size as it returns.)

use std::collections::BTreeSet;

use mantle_types::{MetaPath, MetadataService, RequestCtx};

use crate::drive::Client;
use crate::setup::Bench;
use crate::workload::{job_out, job_tmp, Op, Workload, PARTS};

fn names(bench: &Bench, dir: &MetaPath) -> Result<BTreeSet<String>, String> {
    bench
        .cluster
        .readdir(dir, &mut RequestCtx::new())
        .map(|v| v.into_iter().map(|e| e.name).collect())
        .map_err(|e| format!("readdir {dir}: {e}"))
}

/// Checks the namespace against what `clients` were told succeeded;
/// returns one message per violation.
pub fn run(workload: Workload, bench: &Bench, clients: &[Client]) -> Vec<String> {
    let mut errors = Vec::new();
    match workload {
        Workload::StatZipf => {}
        Workload::Ingest => {
            for c in clients {
                let parent = &bench.parents[c.id];
                match bench.cluster.dirstat(parent, &mut RequestCtx::new()) {
                    Ok(st) if st.attrs.entries == c.acked.len() as i64 => {}
                    Ok(st) => errors.push(format!(
                        "dirstat {parent}: {} entries, {} creates+mkdirs acknowledged",
                        st.attrs.entries,
                        c.acked.len()
                    )),
                    Err(e) => errors.push(format!("dirstat {parent}: {e}")),
                }
            }
        }
        Workload::SparkCommit => {
            let mut renamed: BTreeSet<MetaPath> = BTreeSet::new();
            let mut pending_tmp: BTreeSet<MetaPath> = BTreeSet::new();
            for op in clients.iter().flat_map(|c| &c.acked) {
                match op {
                    Op::Mkdir(p) => {
                        pending_tmp.insert(p.clone());
                    }
                    Op::Rename { src, dst } => {
                        pending_tmp.remove(src);
                        renamed.insert(dst.clone());
                    }
                    _ => {}
                }
            }
            let want_parts: BTreeSet<String> = (0..PARTS).map(|i| format!("part-{i}")).collect();
            let children = |set: &BTreeSet<MetaPath>, dir: &MetaPath| -> BTreeSet<String> {
                set.iter()
                    .filter(|d| d.parent().as_ref() == Some(dir))
                    .map(|d| d.name().expect("non-root").to_string())
                    .collect()
            };
            for job in 0..bench.jobs {
                let out = job_out(&bench.spark_root, job);
                let want_out = children(&renamed, &out);
                match names(bench, &out) {
                    Ok(got) if got == want_out => {}
                    Ok(got) => errors.push(format!(
                        "readdir {out}: {} entries, {} renames acknowledged",
                        got.len(),
                        want_out.len()
                    )),
                    Err(e) => errors.push(e),
                }
                for c in clients {
                    let tmp = job_tmp(&bench.spark_root, job, c.id);
                    let want_tmp = children(&pending_tmp, &tmp);
                    match names(bench, &tmp) {
                        Ok(got) if got == want_tmp => {}
                        Ok(got) => errors.push(format!(
                            "readdir {tmp}: {} entries left, {} tasks still in flight",
                            got.len(),
                            want_tmp.len()
                        )),
                        Err(e) => errors.push(e),
                    }
                }
            }
            for dst in &renamed {
                match names(bench, dst) {
                    Ok(got) if got == want_parts => {}
                    Ok(got) => errors.push(format!("readdir {dst}: parts {got:?}")),
                    Err(e) => errors.push(e),
                }
            }
        }
    }
    errors
}
