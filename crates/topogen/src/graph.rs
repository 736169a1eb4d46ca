//! The pure topology index form: nodes, links, host attachment points
//! and MAC-destination route tables, computable without a simulator.
//!
//! Every question the crate asks of a topology — connectivity, path
//! lengths, stretch, egress ports, the fat-tree's port wiring, §VII's
//! vendor groups — is answered on this value, through one port table
//! and one breadth-first walk (`bfs`), and
//! [`crate::build::build_world`] translates the same indices into a
//! wired [`netco_net::World`] so graph computations and simulated
//! forwarding can never drift apart.

use std::net::Ipv4Addr;

use netco_net::MacAddr;
use netco_sim::{SimDuration, SimRng};

/// Route-table sentinel: this node has no egress for that host.
pub const NO_ROUTE: u16 = u16::MAX;

/// What a node *is* — the trust label the NetCo-ization transform
/// assigns (generators emit plain routers only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An untrusted plain OpenFlow router.
    Router,
    /// A trusted inband guard: port 0 faces the outside, ports `1..=k`
    /// face the replicas, compare embedded (paper §IX placement).
    Guard {
        /// Replica count of the cell this guard fronts.
        k: usize,
        /// `true` → Detect semantics (k = 2), `false` → Prevent.
        detect: bool,
    },
    /// Untrusted replica `index` (1-based) of a NetCo-ized router; port
    /// `j + 1` faces the cell's guard `j`.
    Replica {
        /// 1-based replica index within the cell.
        index: usize,
    },
}

/// One switch-level node.
#[derive(Debug, Clone, PartialEq)]
pub struct TopoNode {
    /// Human-readable name (also the simulator node name).
    pub name: String,
    /// Trust/role label.
    pub kind: NodeKind,
}

/// One bidirectional switch-switch link with explicit port numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct TopoLink {
    /// First endpoint node index.
    pub a: usize,
    /// Port on `a`.
    pub a_port: u16,
    /// Second endpoint node index.
    pub b: usize,
    /// Port on `b`.
    pub b_port: u16,
    /// Link rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation latency (positive, so the space-parallel
    /// executor's lookahead matrix is always populated).
    pub latency: SimDuration,
}

/// One host attachment point.
#[derive(Debug, Clone, PartialEq)]
pub struct TopoHost {
    /// Node the host attaches to.
    pub attach: usize,
    /// Port on the attach node.
    pub attach_port: u16,
    /// The host NIC's MAC address (routes key on it).
    pub mac: MacAddr,
    /// The host NIC's IPv4 address.
    pub ip: Ipv4Addr,
    /// Access-link rate in bits per second.
    pub rate_bps: u64,
    /// Access-link one-way latency.
    pub latency: SimDuration,
}

/// What sits on one port of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attachment {
    /// Link by index into [`TopoGraph::links`].
    Link(usize),
    /// Host by index into [`TopoGraph::hosts`].
    Host(usize),
}

/// The pure index form of a topology. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct TopoGraph {
    /// Topology class tag (e.g. `"barabasi_albert"`), carried into
    /// campaign reports.
    pub class: String,
    /// Switch-level nodes.
    pub nodes: Vec<TopoNode>,
    /// Switch-switch links.
    pub links: Vec<TopoLink>,
    /// Host attachment points.
    pub hosts: Vec<TopoHost>,
    /// MAC-destination route tables: `routes[node][host]` is the egress
    /// port of `node` for traffic to `host` ([`NO_ROUTE`] = none). Empty
    /// until `TopoGraph::install_shortest_path_routes` (or
    /// [`crate::netcoize`]) fills it.
    pub routes: Vec<Vec<u16>>,
    /// The port table: `ports[node][port]` is what that port carries. A
    /// second index over `links` and `hosts`, kept by every method that
    /// wires a port, so port questions cost the node's degree rather
    /// than a scan of the edge list.
    ports: Vec<Vec<Option<Attachment>>>,
}

impl TopoGraph {
    /// An empty graph of the given class.
    pub(crate) fn new(class: impl Into<String>) -> TopoGraph {
        TopoGraph {
            class: class.into(),
            nodes: Vec::new(),
            links: Vec::new(),
            hosts: Vec::new(),
            routes: Vec::new(),
            ports: Vec::new(),
        }
    }

    /// Adds a node, returning its index.
    pub(crate) fn add_node(&mut self, name: impl Into<String>, kind: NodeKind) -> usize {
        self.nodes.push(TopoNode {
            name: name.into(),
            kind,
        });
        self.ports.push(Vec::new());
        self.nodes.len() - 1
    }

    /// How many ports of `node` are already wired (links + hosts).
    pub fn port_count(&self, node: usize) -> u16 {
        self.ports[node].iter().flatten().count() as u16
    }

    /// The smallest port of `node` not yet wired. Equal to
    /// [`TopoGraph::port_count`] for densely numbered nodes, but also
    /// correct after an edit (e.g. Watts-Strogatz rewiring) leaves a
    /// hole in the numbering.
    pub fn free_port(&self, node: usize) -> u16 {
        let ports = &self.ports[node];
        ports
            .iter()
            .position(Option::is_none)
            .unwrap_or(ports.len()) as u16
    }

    /// Records `what` on `port` of `node`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown node or a port that already carries a link
    /// or a host.
    fn wire(&mut self, node: usize, port: u16, what: Attachment) {
        assert!(node < self.nodes.len(), "unknown node");
        let ports = &mut self.ports[node];
        if ports.len() <= port as usize {
            ports.resize(port as usize + 1, None);
        }
        assert!(ports[port as usize].is_none(), "port already wired");
        ports[port as usize] = Some(what);
    }

    /// Links `a` and `b` on the next free port of each (ports are
    /// assigned in attachment-insertion order), returning the link index.
    pub(crate) fn link(
        &mut self,
        a: usize,
        b: usize,
        rate_bps: u64,
        latency: SimDuration,
    ) -> usize {
        let a_port = self.free_port(a);
        let b_port = self.free_port(b);
        self.link_with_ports(a, a_port, b, b_port, rate_bps, latency)
    }

    /// Links `a` port `a_port` to `b` port `b_port` with explicit ports
    /// (generators with structured port schemes, e.g. the fat-tree).
    pub(crate) fn link_with_ports(
        &mut self,
        a: usize,
        a_port: u16,
        b: usize,
        b_port: u16,
        rate_bps: u64,
        latency: SimDuration,
    ) -> usize {
        assert!(a != b, "self-loops are not topologies");
        let link = Attachment::Link(self.links.len());
        self.wire(a, a_port, link);
        self.wire(b, b_port, link);
        self.links.push(TopoLink {
            a,
            a_port,
            b,
            b_port,
            rate_bps,
            latency,
        });
        self.links.len() - 1
    }

    /// Moves the far (`b`) end of `link` to the smallest free port of
    /// `node`, leaving the `a` end where it is — the Watts-Strogatz
    /// rewiring step. The vacated port becomes a hole in the old far
    /// node's numbering.
    pub(crate) fn rewire_far(&mut self, link: usize, node: usize) {
        let TopoLink { a, b, b_port, .. } = self.links[link];
        assert!(a != node, "self-loops are not topologies");
        self.ports[b][b_port as usize] = None;
        let port = self.free_port(node);
        self.wire(node, port, Attachment::Link(link));
        self.links[link].b = node;
        self.links[link].b_port = port;
    }

    /// The `(node, port)` at the other end of the link on `port` of
    /// `node`; `None` for an unwired port or a host port.
    pub(crate) fn far_end(&self, node: usize, port: u16) -> Option<(usize, u16)> {
        let Some(Attachment::Link(i)) = self.ports[node].get(port as usize).copied().flatten()
        else {
            return None;
        };
        let l = &self.links[i];
        Some(if (l.a, l.a_port) == (node, port) {
            (l.b, l.b_port)
        } else {
            (l.a, l.a_port)
        })
    }

    /// The smallest port of `a` whose link leads to `b`; `None` when
    /// the two are not linked.
    pub(crate) fn port_toward(&self, a: usize, b: usize) -> Option<u16> {
        (0..self.ports[a].len() as u16).find(|&p| self.far_end(a, p).is_some_and(|(n, _)| n == b))
    }

    /// Whether `a` and `b` are directly linked.
    pub fn linked(&self, a: usize, b: usize) -> bool {
        self.port_toward(a, b).is_some()
    }

    /// Attaches a host to `node` on its next free port.
    pub(crate) fn attach_host(
        &mut self,
        node: usize,
        mac: MacAddr,
        ip: Ipv4Addr,
        rate_bps: u64,
        latency: SimDuration,
    ) -> usize {
        let port = self.free_port(node);
        self.attach_host_at(node, port, mac, ip, rate_bps, latency)
    }

    /// Attaches a host to an explicit `(node, port)`.
    pub(crate) fn attach_host_at(
        &mut self,
        node: usize,
        port: u16,
        mac: MacAddr,
        ip: Ipv4Addr,
        rate_bps: u64,
        latency: SimDuration,
    ) -> usize {
        self.wire(node, port, Attachment::Host(self.hosts.len()));
        self.hosts.push(TopoHost {
            attach: node,
            attach_port: port,
            mac,
            ip,
            rate_bps,
            latency,
        });
        self.hosts.len() - 1
    }

    /// Per-node attachments (links and hosts) sorted by port number.
    /// The *rank* of an attachment in this list is the port index the
    /// NetCo-ization transform keys guard and replica wiring on.
    pub fn attachments(&self, node: usize) -> Vec<(u16, Attachment)> {
        let wired = self.ports[node].iter().zip(0u16..);
        wired.filter_map(|(what, p)| Some((p, (*what)?))).collect()
    }

    /// Node adjacency in link-insertion order: `(link index, peer node,
    /// my port)` per entry. Deterministic, so BFS tie-breaks are a pure
    /// function of the graph.
    pub(crate) fn adjacency(&self) -> Vec<Vec<(usize, usize, u16)>> {
        let mut adj = vec![Vec::new(); self.nodes.len()];
        for (i, l) in self.links.iter().enumerate() {
            adj[l.a].push((i, l.b, l.a_port));
            adj[l.b].push((i, l.a, l.b_port));
        }
        adj
    }

    /// Connected components over the node graph, each listed in node
    /// order; the components themselves are ordered by smallest member.
    pub fn components(&self) -> Vec<Vec<usize>> {
        self.components_of(|_| true)
    }

    /// [`TopoGraph::components`] of the subgraph induced by the nodes
    /// `keep` accepts.
    pub(crate) fn components_of(&self, keep: impl Fn(usize) -> bool) -> Vec<Vec<usize>> {
        let adj = self.adjacency();
        let mut reached = vec![false; self.nodes.len()];
        let mut comps = Vec::new();
        for root in 0..self.nodes.len() {
            if reached[root] || !keep(root) {
                continue;
            }
            let mut comp: Vec<usize> = bfs(&adj, root, &keep).iter().map(|s| s.0).collect();
            for &v in &comp {
                reached[v] = true;
            }
            comp.sort_unstable();
            comps.push(comp);
        }
        comps
    }

    /// Whether every node reaches every other node.
    pub fn is_connected(&self) -> bool {
        self.nodes.is_empty() || self.components().len() == 1
    }

    /// Installs shortest-path MAC-destination routes: for every host,
    /// BFS over the node graph from its attach node fills
    /// `routes[n][h]` with the egress port of `n` toward `h` (ties
    /// broken by link-insertion order, so the table is deterministic).
    /// Unreachable nodes keep [`NO_ROUTE`].
    pub(crate) fn install_shortest_path_routes(&mut self) {
        let adj = self.adjacency();
        let n = self.nodes.len();
        self.routes = vec![vec![NO_ROUTE; self.hosts.len()]; n];
        // One walk per distinct attach node, shared by co-located hosts;
        // v's egress toward it is v's port on its discovery link.
        let mut toward: Vec<Option<Vec<u16>>> = vec![None; n];
        for h in 0..self.hosts.len() {
            let attach = self.hosts[h].attach;
            let ports = toward[attach].get_or_insert_with(|| {
                let mut ports = vec![NO_ROUTE; n];
                for &(v, _, link) in bfs(&adj, attach, |_| true).iter().skip(1) {
                    let l = &self.links[link];
                    ports[v] = if l.a == v { l.a_port } else { l.b_port };
                }
                ports
            });
            for (row, &port) in self.routes.iter_mut().zip(ports.iter()) {
                row[h] = port;
            }
            // The attach node itself delivers on the host port.
            self.routes[attach][h] = self.hosts[h].attach_port;
        }
    }

    /// Walks the installed routes from `src` host to `dst` host and
    /// returns the number of switch hops the frame traverses (guards,
    /// replicas and routers each count as one hop), or `None` when no
    /// route exists. This is the index-form path the built world's
    /// forwarding follows, so hop stretch computed here is the stretch
    /// the simulation pays.
    pub fn route_hops(&self, src: usize, dst: usize) -> Option<usize> {
        if self.routes.is_empty() {
            return None;
        }
        if src == dst {
            return Some(0);
        }
        let dst_attach = (self.hosts[dst].attach, self.hosts[dst].attach_port);
        let mut node = self.hosts[src].attach;
        let mut in_port = self.hosts[src].attach_port;
        let mut hops = 0usize;
        // Generous loop bound: a NetCo cell multiplies hops by 3.
        for _ in 0..self.nodes.len() * 4 + 8 {
            hops += 1;
            let out = match self.nodes[node].kind {
                NodeKind::Router | NodeKind::Replica { .. } => {
                    let p = self.routes[node][dst];
                    if p == NO_ROUTE {
                        return None;
                    }
                    p
                }
                NodeKind::Guard { .. } => {
                    // Ingress on the outward port hubs to the replicas
                    // (any one stands for all — copies are identical);
                    // ingress from a replica releases out the outward
                    // port after the vote.
                    if in_port == 0 {
                        1
                    } else {
                        0
                    }
                }
            };
            if (node, out) == dst_attach {
                return Some(hops);
            }
            let (peer, peer_port) = self.far_end(node, out)?;
            node = peer;
            in_port = peer_port;
        }
        None
    }

    /// A seeded `fraction` (count rounded to nearest) of the nodes `pick`
    /// accepts, sorted: a shuffle of the candidates on `seed`'s fork
    /// `label`, truncated. How `netcoize` and the adversary choose sites.
    pub(crate) fn seeded_sites(
        &self,
        pick: impl Fn(NodeKind) -> bool,
        fraction: f64,
        seed: u64,
        label: u64,
    ) -> Vec<usize> {
        let mut sites: Vec<usize> = (0..self.nodes.len())
            .filter(|&n| pick(self.nodes[n].kind))
            .collect();
        let count = (fraction.clamp(0.0, 1.0) * sites.len() as f64).round() as usize;
        SimRng::new(seed).fork(label).shuffle(&mut sites);
        sites.truncate(count);
        sites.sort_unstable();
        sites
    }

    /// Total switch count (`nodes.len()`, named for report readability).
    pub fn switch_count(&self) -> usize {
        self.nodes.len()
    }

    /// Count of nodes of each kind: `(routers, guards, replicas)`.
    pub fn kind_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for node in &self.nodes {
            match node.kind {
                NodeKind::Router => counts.0 += 1,
                NodeKind::Guard { .. } => counts.1 += 1,
                NodeKind::Replica { .. } => counts.2 += 1,
            }
        }
        counts
    }

    /// An order-sensitive 64-bit digest over every field of the index
    /// form — the "byte-identical `TopoGraph`" witness the determinism
    /// proptests and campaign reports fold on.
    pub fn digest(&self) -> u64 {
        let mut d = fnv1a_str(0xcbf2_9ce4_8422_2325, &self.class);
        for node in &self.nodes {
            d = fnv1a_str(d, &node.name);
            d = fnv1a_u64(
                d,
                match node.kind {
                    NodeKind::Router => 1,
                    NodeKind::Guard { k, detect } => 0x100 | (k as u64) << 16 | detect as u64,
                    NodeKind::Replica { index } => 0x200 | (index as u64) << 16,
                },
            );
        }
        for l in &self.links {
            for v in [
                l.a as u64,
                l.a_port as u64,
                l.b as u64,
                l.b_port as u64,
                l.rate_bps,
                l.latency.as_nanos(),
            ] {
                d = fnv1a_u64(d, v);
            }
        }
        for h in &self.hosts {
            for v in [
                h.attach as u64,
                h.attach_port as u64,
                u64::from(u32::from(h.ip)),
                h.rate_bps,
                h.latency.as_nanos(),
            ] {
                d = fnv1a_u64(d, v);
            }
            d = fnv1a_str(d, &h.mac.to_string());
        }
        for row in &self.routes {
            for &p in row {
                d = fnv1a_u64(d, p as u64);
            }
        }
        d
    }
}

/// The crate's one breadth-first walk: every node reachable from `root`
/// through nodes `enter` accepts (the root always), in visit order, as
/// `(node, parent, link)` — the node and link it was first reached
/// from; the root is `(root, root, usize::MAX)`. Neighbours are tried in
/// `adj` ([`TopoGraph::adjacency`]) order: the tie-break every route,
/// component and path built on the walk inherits.
pub(crate) fn bfs(
    adj: &[Vec<(usize, usize, u16)>],
    root: usize,
    enter: impl Fn(usize) -> bool,
) -> Vec<(usize, usize, usize)> {
    let mut seen = vec![false; adj.len()];
    seen[root] = true;
    let mut order = vec![(root, root, usize::MAX)];
    // `order` is its own queue: entries from `next` on are unexpanded.
    let mut next = 0;
    while let Some(&(v, ..)) = order.get(next) {
        next += 1;
        for &(link, peer, _) in &adj[v] {
            if !seen[peer] && enter(peer) {
                seen[peer] = true;
                order.push((peer, v, link));
            }
        }
    }
    order
}

fn fnv1a_u64(mut d: u64, v: u64) -> u64 {
    for byte in v.to_le_bytes() {
        d ^= byte as u64;
        d = d.wrapping_mul(0x1_0000_0000_01b3);
    }
    d
}

fn fnv1a_str(mut d: u64, s: &str) -> u64 {
    for byte in s.as_bytes() {
        d ^= *byte as u64;
        d = d.wrapping_mul(0x1_0000_0000_01b3);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> TopoGraph {
        let mut g = TopoGraph::new("test");
        let a = g.add_node("a", NodeKind::Router);
        let b = g.add_node("b", NodeKind::Router);
        let c = g.add_node("c", NodeKind::Router);
        let us = SimDuration::from_micros(5);
        g.link(a, b, 1_000_000_000, us);
        g.link(b, c, 1_000_000_000, us);
        g.link(a, c, 1_000_000_000, us);
        g.attach_host(
            a,
            MacAddr::local(1),
            Ipv4Addr::new(10, 0, 0, 1),
            1_000_000_000,
            us,
        );
        g.attach_host(
            c,
            MacAddr::local(2),
            Ipv4Addr::new(10, 0, 0, 2),
            1_000_000_000,
            us,
        );
        g
    }

    #[test]
    fn ports_assigned_in_attachment_order() {
        let g = triangle();
        // a: link0 port 0, link2 port 1, host0 port 2.
        assert_eq!(g.links[0].a_port, 0);
        assert_eq!(g.links[2].a_port, 1);
        assert_eq!(g.hosts[0].attach_port, 2);
        // b: link0 port 0, link1 port 1.
        assert_eq!(g.links[0].b_port, 0);
        assert_eq!(g.links[1].a_port, 1);
    }

    #[test]
    #[should_panic(expected = "port already wired")]
    fn linking_onto_a_host_port_panics() {
        let mut g = triangle();
        // Port 2 of `a` holds host 0; port 2 of `b` is free.
        g.link_with_ports(0, 2, 1, 2, 1_000_000_000, SimDuration::from_micros(5));
    }

    #[test]
    #[should_panic(expected = "port already wired")]
    fn attaching_onto_a_link_port_panics() {
        let mut g = triangle();
        // Port 1 of `b` is the far end of link 1.
        let (mac, ip) = (MacAddr::local(3), Ipv4Addr::new(10, 0, 0, 3));
        g.attach_host_at(1, 1, mac, ip, 1_000_000_000, SimDuration::from_micros(5));
    }

    #[test]
    fn port_toward_reads_the_port_table() {
        let mut g = triangle();
        let us = SimDuration::from_micros(5);
        assert_eq!(g.port_toward(2, 0), Some(1));
        // Parallel d–e links: the smallest port of each end, whichever
        // link was added first.
        let d = g.add_node("d", NodeKind::Router);
        let e = g.add_node("e", NodeKind::Router);
        g.link_with_ports(d, 5, e, 1, 1_000_000_000, us);
        g.link_with_ports(d, 2, e, 4, 1_000_000_000, us);
        assert_eq!(g.port_toward(d, e), Some(2));
        assert_eq!(g.port_toward(e, d), Some(1));
        // Not adjacent.
        assert_eq!(g.port_toward(0, d), None);
        // A host port leads to no node: c's port 2 carries host 1, yet c
        // reaches node 1 (b) on its port 0; d's port 0 carries host 2,
        // and d reaches no node at all.
        assert_eq!(g.port_toward(2, 1), Some(0));
        let (mac, ip) = (MacAddr::local(3), Ipv4Addr::new(10, 0, 0, 3));
        g.attach_host_at(d, 0, mac, ip, 1_000_000_000, us);
        assert!((0..d).all(|n| g.port_toward(d, n).is_none()));
    }

    #[test]
    fn shortest_path_routes_and_hops() {
        let mut g = triangle();
        g.install_shortest_path_routes();
        // a -> host1 (on c): direct a-c link, port 1 on a.
        assert_eq!(g.routes[0][1], 1);
        // b -> host1: its b-c link, port 1 on b.
        assert_eq!(g.routes[1][1], 1);
        // c delivers host1 on the host port (2).
        assert_eq!(g.routes[2][1], 2);
        // host0 -> host1 crosses a and c: 2 switch hops.
        assert_eq!(g.route_hops(0, 1), Some(2));
        assert_eq!(g.route_hops(1, 0), Some(2));
        assert_eq!(g.route_hops(0, 0), Some(0));
    }

    #[test]
    fn components_split_and_merge() {
        let mut g = triangle();
        assert!(g.is_connected());
        let d = g.add_node("d", NodeKind::Router);
        let e = g.add_node("e", NodeKind::Router);
        g.link(d, e, 1_000_000_000, SimDuration::from_micros(5));
        let comps = g.components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[1], vec![3, 4]);
        assert!(!g.is_connected());
    }

    #[test]
    fn digest_is_field_sensitive() {
        let mut g = triangle();
        let d0 = g.digest();
        assert_eq!(d0, triangle().digest(), "same build, same digest");
        g.links[1].latency = SimDuration::from_micros(6);
        assert_ne!(d0, g.digest(), "latency change must move the digest");
    }
}
