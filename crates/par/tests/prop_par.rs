//! Property tests for the pool's determinism contract, driven by the
//! in-repo `btc_netsim::prop` harness: for arbitrary inputs and any job
//! count, `par_map` must be indistinguishable from a serial map —
//! including panic propagation and degenerate input sizes.

use btc_netsim::prop::{check, Gen};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The job counts the ISSUE calls out explicitly: the serial path, the
/// smallest real pool, and an odd count exceeding this machine's cores.
const JOB_COUNTS: [usize; 3] = [1, 2, 7];

#[test]
fn par_map_matches_serial_map_for_any_input() {
    check("par_map ≡ serial map", |g: &mut Gen| {
        let items = g.vec_with(0, 64, |g| g.u64());
        let expect: Vec<u64> = items
            .iter()
            .map(|x| x.wrapping_mul(0x9e37_79b9).rotate_left(13))
            .collect();
        for jobs in JOB_COUNTS {
            let got = btc_par::par_map(jobs, items.clone(), |x| {
                x.wrapping_mul(0x9e37_79b9).rotate_left(13)
            });
            assert_eq!(got, expect, "jobs={jobs} items={}", items.len());
        }
    });
}

#[test]
fn par_map_handles_empty_and_single_inputs() {
    check("par_map degenerate sizes", |g: &mut Gen| {
        let x = g.u32();
        for jobs in JOB_COUNTS {
            assert_eq!(
                btc_par::par_map(jobs, Vec::<u32>::new(), |v| v + 1),
                Vec::<u32>::new()
            );
            assert_eq!(btc_par::par_map(jobs, vec![x], |v| v ^ 0xFFFF), vec![x ^ 0xFFFF]);
        }
    });
}

#[test]
fn par_map_propagates_panics_like_a_serial_map() {
    check("par_map panic propagation", |g: &mut Gen| {
        // A nonempty input with at least one poison value.
        let mut items = g.vec_with(1, 32, |g| g.u64_in(0, 100));
        let poison_at = g.usize_in(0, items.len());
        items[poison_at] = 1000; // sentinel outside the generated range
        for jobs in JOB_COUNTS {
            let result = catch_unwind(AssertUnwindSafe(|| {
                btc_par::par_map(jobs, items.clone(), |x| {
                    assert!(x < 1000, "poisoned input {x}");
                    x
                })
            }));
            let msg = match result {
                Ok(_) => panic!("jobs={jobs}: poisoned sweep did not panic"),
                Err(payload) => payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default(),
            };
            assert!(msg.contains("poisoned input"), "jobs={jobs} payload {msg:?}");
        }
    });
}
