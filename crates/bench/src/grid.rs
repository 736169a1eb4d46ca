//! A grid of NetCo-protected router cells, big enough to shard.
//!
//! The paper's reference scenarios are a handful of switches — far too
//! small to demonstrate space-parallel speedup. This builder lays out
//! `rows × cells` independent east–west paths, where every hop is a full
//! inband NetCo cell (the paper's §IX middlebox placement, wired by
//! [`netco_topo::cell`]): two trusted guards sandwiching three untrusted
//! replica switches, compare embedded in the downstream guard. A `8 × 5`
//! grid is therefore `8 · 5 · 5 = 200` switches plus 16 hosts.
//!
//! Each row carries an endless Ethernet ping-pong: the west host sends a
//! sequence-stamped frame to the east host's MAC, the east host replies
//! with source/destination swapped, and so on until the deadline. Link
//! latencies and payload sizes are staggered per row and per cell so no
//! two rows tick in lockstep — the event stream exercises the
//! region-parallel executor's horizon logic rather than degenerating into
//! a synchronous barrier per hop.
//!
//! Every link has positive latency, so the region partitioner never has
//! to contract grid edges and the lookahead matrix is fully populated.
//!
//! The lattice geometry — staggered latencies, host MAC scheme, payload
//! sizes, replica datapath ids — lives in [`netco_topogen::lattice`]
//! ([`RowGrid`]), shared with the campaign engine's generators; the
//! `grid_lattice_digest` test pins this world bit for bit against the
//! pre-topogen builder.

use bytes::{BufMut, Bytes, BytesMut};
use netco_core::{CompareConfig, GuardConfig};
use netco_net::packet::{EtherType, EthernetFrame};
use netco_net::{Ctx, Device, Frame, LinkSpec, MacAddr, NodeId, PortId, World};
use netco_topo::cell::{Cell, CellSpec, REPLICA_PORT};
use netco_topo::{routed_switch, Profile};
use netco_topogen::lattice::RowGrid;

/// Replicas per NetCo cell (the paper's k = 3 prevent configuration).
const REPLICAS: u16 = 3;

/// One row's endpoint: replies to every frame addressed to it, and (when
/// `initiator`) sends the first frame on start. Payload carries the row
/// id and a monotonically increasing sequence number so consecutive
/// frames never share a fingerprint.
struct PingPongHost {
    mac: MacAddr,
    peer: MacAddr,
    row: u16,
    payload_len: usize,
    initiator: bool,
    /// Frames sent (including replies).
    sent: u64,
    /// Frames received that were addressed to this host.
    received: u64,
}

impl PingPongHost {
    fn new(mac: MacAddr, peer: MacAddr, row: u16, payload_len: usize, initiator: bool) -> Self {
        PingPongHost {
            mac,
            peer,
            row,
            payload_len,
            initiator,
            sent: 0,
            received: 0,
        }
    }

    fn next_frame(&mut self) -> Bytes {
        let mut payload = BytesMut::with_capacity(self.payload_len);
        payload.put_u16(self.row);
        payload.put_u64(self.sent);
        payload.resize(self.payload_len, 0xa5);
        self.sent += 1;
        EthernetFrame {
            dst: self.peer,
            src: self.mac,
            vlan: None,
            ethertype: EtherType::Other(0x88b5),
            payload: payload.freeze(),
        }
        .encode()
    }
}

impl Device for PingPongHost {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.initiator {
            let wire = self.next_frame();
            ctx.send_frame(PortId(0), wire);
        }
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, _port: PortId, frame: Frame) {
        let Ok(eth) = EthernetFrame::decode(frame.bytes()) else {
            return;
        };
        if eth.dst != self.mac {
            return;
        }
        self.received += 1;
        let wire = self.next_frame();
        ctx.send_frame(PortId(0), wire);
    }
}

/// A built grid plus the handles needed to assert on it afterwards.
pub struct GridWorld {
    /// The wired world, not yet run.
    pub world: World,
    /// `(west, east)` host pair per row.
    pub hosts: Vec<(NodeId, NodeId)>,
    /// Total switch count (guards + replicas).
    pub switches: usize,
}

impl GridWorld {
    /// Sum of frames received by every host — the grid's end-to-end
    /// progress measure (each count is one completed one-way crossing).
    pub fn deliveries(&self) -> u64 {
        let mut total = 0;
        for &(w, e) in &self.hosts {
            for id in [w, e] {
                if let Some(host) = self.world.device::<PingPongHost>(id) {
                    total += host.received;
                }
            }
        }
        total
    }
}

/// Builds a `rows × cells` grid of inband NetCo cells with one endless
/// ping-pong flow per row. `seed` feeds the world RNG (CPU jitter). The
/// geometry constants all come from the shared [`RowGrid`] lattice.
pub fn build_grid(rows: usize, cells: usize, seed: u64) -> GridWorld {
    let lattice = RowGrid::new(rows, cells);
    let profile = Profile::default();
    let mut world = World::new(seed);
    let mut hosts = Vec::with_capacity(rows);
    let mut switches = 0;

    for row in 0..rows as u16 {
        let wm = RowGrid::west_mac(row);
        let em = RowGrid::east_mac(row);
        let payload = RowGrid::payload_len(row);
        let west = world.add_node(
            format!("h{row}w"),
            PingPongHost::new(wm, em, row, payload, true),
            profile.host_cpu.clone(),
        );
        let east = world.add_node(
            format!("h{row}e"),
            PingPongHost::new(em, wm, row, payload, false),
            profile.host_cpu.clone(),
        );

        // Port 0 of each cell's west guard (guard 0) faces west, port 0 of
        // the east guard faces east.
        let mut west_edge = (west, PortId(0));
        for cell in 0..cells {
            let spec = LinkSpec::new(1_000_000_000, lattice.latency(row as usize, cell));
            let [west_port, east_port] = REPLICA_PORT;
            let netco = Cell::wire(
                &mut world,
                CellSpec {
                    k: REPLICAS as usize,
                    guard_names: [format!("g{row}.{cell}w"), format!("g{row}.{cell}e")],
                    compare: None,
                    profile: &profile,
                    link: &spec,
                },
                |_, ports| {
                    let compare = CompareConfig::prevent(REPLICAS as usize);
                    GuardConfig::inband(ports.out, ports.replicas, compare)
                },
                |i| {
                    let dpid = RowGrid::replica_datapath_id(row as usize, cell, i);
                    let routes = [(em, east_port), (wm, west_port)];
                    let name = format!("r{row}.{cell}.{i}");
                    (name, routed_switch(dpid, routes, [], None))
                },
                |_, _, _| {},
            );
            let [ga, gb] = netco.guards;
            let (wn, wp) = west_edge;
            world.connect(wn, wp, ga, PortId(0), spec.clone());
            west_edge = (gb, PortId(0));
            switches += RowGrid::switches_per_cell(REPLICAS as usize);
        }
        let (wn, wp) = west_edge;
        world.connect(
            wn,
            wp,
            east,
            PortId(0),
            LinkSpec::new(1_000_000_000, lattice.latency(row as usize, cells)),
        );
        hosts.push((west, east));
    }

    GridWorld {
        world,
        hosts,
        switches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netco_sim::SimDuration;

    #[test]
    fn grid_carries_traffic_end_to_end() {
        let mut grid = build_grid(2, 2, 7);
        assert_eq!(grid.switches, 2 * 2 * 5);
        grid.world.run_for(SimDuration::from_millis(20));
        // Both rows must have completed at least one full crossing in
        // each direction.
        for &(w, e) in &grid.hosts {
            let west = grid.world.device::<PingPongHost>(w).unwrap();
            let east = grid.world.device::<PingPongHost>(e).unwrap();
            assert!(east.received >= 1, "east host starved");
            assert!(west.received >= 1, "west host starved");
        }
        assert!(grid.deliveries() >= 4);
    }
}
