//! The one lattice builder: row/column grid geometry shared between the
//! campaign grid generator and `netco_bench::grid` (the 400-switch
//! PR-7 `region_scale` world).
//!
//! Before this module existed, `netco_bench::grid` carried its own copy
//! of the staggered-latency formula, host MAC scheme and replica
//! datapath-id layout. Those constants are load-bearing — the PR 7
//! benchmark's bit-identity digests depend on them — so they live here
//! exactly once and `netco_bench::grid` consumes them (pinned by the
//! `grid_lattice_digest` regression test in netco-bench).

use netco_net::MacAddr;
use netco_sim::SimDuration;

use crate::graph::{NodeKind, TopoGraph};

/// Staggered positive link latency, `3 + ((row·7 + cell·3) mod 7) µs`:
/// every link latency is positive (the region partitioner never has to
/// contract a lattice edge) and no two rows tick in lockstep (the
/// space-parallel executor's horizon logic is exercised instead of
/// degenerating into a synchronous barrier per hop).
pub(crate) fn stagger_latency(row: usize, cell: usize) -> SimDuration {
    SimDuration::from_micros(3 + ((row * 7 + cell * 3) % 7) as u64)
}

/// The `rows × cells` east–west row lattice: per row, a path of `cells`
/// routers between a west and an east host. This is the geometry of the
/// PR-7 `region_scale` world (where every router is then a full
/// inband NetCo cell) and of the campaign engine's `row_grid` class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowGrid {
    /// Independent east–west rows.
    pub rows: usize,
    /// Routers (NetCo cells) per row.
    pub cells: usize,
}

impl RowGrid {
    /// A non-empty lattice.
    ///
    /// # Panics
    ///
    /// Panics on an empty dimension.
    pub fn new(rows: usize, cells: usize) -> RowGrid {
        assert!(rows > 0 && cells > 0, "grid must be non-empty");
        RowGrid { rows, cells }
    }

    /// West-side host MAC for `row`.
    pub fn west_mac(row: u16) -> MacAddr {
        MacAddr::local(0x1000 + 2 * row as u32)
    }

    /// East-side host MAC for `row`.
    pub fn east_mac(row: u16) -> MacAddr {
        MacAddr::local(0x1000 + 2 * row as u32 + 1)
    }

    /// Per-row ping-pong payload length, staggered so no two rows share
    /// a frame size (and therefore a fingerprint cadence).
    pub fn payload_len(row: u16) -> usize {
        64 + (row as usize * 13) % 400
    }

    /// The latency of the link *west of* cell `cell` in `row` (so
    /// `cell == self.cells` is the east tail link to the east host).
    pub fn latency(&self, row: usize, cell: usize) -> SimDuration {
        stagger_latency(row, cell)
    }

    /// Deterministic datapath id of replica `i` (1-based) of the NetCo
    /// cell at `(row, cell)`.
    pub fn replica_datapath_id(row: usize, cell: usize, i: u16) -> u64 {
        0x4000_0000 | (row as u64) << 16 | (cell as u64) << 4 | i as u64
    }

    /// Switches one NetCo-ized cell contributes: 2 guards + `k` replicas.
    pub fn switches_per_cell(k: usize) -> usize {
        2 + k
    }

    /// The lattice as a pure [`TopoGraph`]: `rows·cells` routers in
    /// row-major order, each row a west→east path, host pair per row
    /// (west first), link latencies from [`RowGrid::latency`]. Routes
    /// installed. This is the index form the NetCo-ization transform
    /// turns into the same cell structure `netco_bench::grid` builds.
    pub fn graph(&self) -> TopoGraph {
        let mut g = TopoGraph::new("row_grid");
        let rate = 1_000_000_000;
        for row in 0..self.rows {
            for cell in 0..self.cells {
                g.add_node(format!("r{row}.{cell}"), NodeKind::Router);
            }
        }
        for row in 0..self.rows {
            let first = row * self.cells;
            // West host on the row's first router (the west tail link),
            // then the east-going path, then the east host.
            g.attach_host(
                first,
                RowGrid::west_mac(row as u16),
                std::net::Ipv4Addr::new(10, 90, row as u8, 1),
                rate,
                self.latency(row, 0),
            );
            for cell in 1..self.cells {
                g.link(
                    first + cell - 1,
                    first + cell,
                    rate,
                    self.latency(row, cell),
                );
            }
            g.attach_host(
                first + self.cells - 1,
                RowGrid::east_mac(row as u16),
                std::net::Ipv4Addr::new(10, 90, row as u8, 2),
                rate,
                self.latency(row, self.cells),
            );
        }
        g.install_shortest_path_routes();
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stagger_is_positive_and_periodic() {
        for row in 0..20 {
            for cell in 0..20 {
                let lat = stagger_latency(row, cell);
                assert!(lat >= SimDuration::from_micros(3));
                assert!(lat <= SimDuration::from_micros(9));
            }
        }
        assert_ne!(stagger_latency(0, 0), stagger_latency(0, 1));
    }

    #[test]
    fn row_grid_graph_shape() {
        let g = RowGrid::new(4, 3).graph();
        assert_eq!(g.nodes.len(), 12);
        assert_eq!(g.links.len(), 4 * 2, "2 internal links per 3-cell row");
        assert_eq!(g.hosts.len(), 8);
        assert!(g.is_connected() || g.components().len() == 4);
        // Each row's west->east path crosses all 3 routers.
        assert_eq!(g.route_hops(0, 1), Some(3));
        // MAC/payload schemes are the PR-7 constants.
        assert_eq!(RowGrid::west_mac(3), MacAddr::local(0x1000 + 6));
        assert_eq!(RowGrid::payload_len(2), 90);
        assert_eq!(
            RowGrid::replica_datapath_id(1, 2, 3),
            0x4000_0000 | 1 << 16 | 2 << 4 | 3
        );
    }
}
