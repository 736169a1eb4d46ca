//! The smoke campaign's tap digests, pinned.
//!
//! Every cell of a campaign runs under a `TapDigest`: the time, place,
//! direction and bytes of every frame any node sent or received, folded
//! in order. `topology_experiments` compares one worker count with
//! another, which catches a scheduling dependence but not a change that
//! moves every run the same way. This file holds `run_campaign(smoke(7))`
//! to constants: each cell's `(digest, events, received)` and the
//! FNV-1a of the rendered report (which carries the offered-load cell
//! and the region-parallel witness's verdict). A failing row means a
//! frame, its time or its place moved in that cell.

use netco_harness::Pool;
use netco_net::fnv1a;
use netco_topogen::campaign::{render_json, run_campaign, CampaignConfig};

/// `(class, k, adversary_fraction, digest, events, received)` per cell,
/// in sweep order.
#[rustfmt::skip]
const SMOKE_7_CELLS: [(&str, usize, f64, u64, u64, u32); 8] = [
    ("grid",             2, 0.0, 0x1e8a_5750_77cf_a7a1,  8_535, 104),
    ("grid",             2, 0.4, 0xb112_81ac_ed79_5455, 10_935, 104),
    ("grid",             3, 0.0, 0x1dc5_692b_010c_0a21, 10_912, 104),
    ("grid",             3, 0.4, 0xa511_548f_9113_f5f8,  9_152,  64),
    ("barabasi_albert",  2, 0.0, 0xd6eb_c3ae_3dce_0d05,  8_307, 104),
    ("barabasi_albert",  2, 0.4, 0x9de0_4278_62b2_db82, 11_123, 104),
    ("barabasi_albert",  3, 0.0, 0x021e_43be_df98_ec36, 10_429, 104),
    ("barabasi_albert",  3, 0.4, 0x39fd_dc3f_b050_434a,  9_709,  80),
];

/// FNV-1a of `render_json(smoke(7), ..)`.
const SMOKE_7_RENDER_FNV: u64 = 0x0e6e_6048_0ffb_28d0;

#[test]
fn smoke_campaign_digests_are_pinned() {
    let cfg = CampaignConfig::smoke(7);
    let result = run_campaign(&cfg, &Pool::new(2));
    let cells: Vec<_> = result
        .cells
        .iter()
        .map(|c| {
            (
                c.class.as_str(),
                c.k,
                c.adversary_fraction,
                c.digest,
                c.events,
                c.received,
            )
        })
        .collect();
    let render = fnv1a(render_json(&cfg, &result).as_bytes());
    assert_eq!(cells, SMOKE_7_CELLS);
    assert_eq!(render, SMOKE_7_RENDER_FNV);
    assert!(result.region_parallel_identical);
}
