//! Flow entries and the priority-ordered flow table.

use std::collections::HashMap;
use std::sync::Arc;

use netco_sim::fxhash::FxBuildHasher;
use netco_sim::{SimDuration, SimTime};

use crate::action::Action;
use crate::flow_match::FlowMatch;
use netco_net::packet::PacketFields;
use netco_net::MacAddr;

/// One match-action rule with counters and timeouts.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowEntry {
    priority: u16,
    matcher: FlowMatch,
    // Shared so the routes a world builder installs toward one port hold
    // one list between them. Atomically counted (`Arc`, not `Rc`) so whole
    // tables can move across the NETCO_THREADS sweep workers.
    actions: Arc<[Action]>,
    cookie: u64,
    idle_timeout: Option<SimDuration>,
    hard_timeout: Option<SimDuration>,
    created_at: SimTime,
    last_matched: SimTime,
    packets: u64,
    bytes: u64,
}

impl FlowEntry {
    /// Creates an entry with no timeouts and zero cookie. `actions` is a
    /// `Vec` or an already shared `Arc<[Action]>`, which the entry then
    /// shares rather than copies.
    pub fn new(priority: u16, matcher: FlowMatch, actions: impl Into<Arc<[Action]>>) -> FlowEntry {
        FlowEntry {
            priority,
            matcher,
            actions: actions.into(),
            cookie: 0,
            idle_timeout: None,
            hard_timeout: None,
            created_at: SimTime::ZERO,
            last_matched: SimTime::ZERO,
            packets: 0,
            bytes: 0,
        }
    }

    /// Builder: sets the idle timeout.
    pub(crate) fn with_idle_timeout(mut self, timeout: SimDuration) -> FlowEntry {
        self.idle_timeout = Some(timeout);
        self
    }

    /// Builder: sets the hard timeout.
    pub(crate) fn with_hard_timeout(mut self, timeout: SimDuration) -> FlowEntry {
        self.hard_timeout = Some(timeout);
        self
    }

    /// Builder: sets the opaque controller cookie.
    pub(crate) fn with_cookie(mut self, cookie: u64) -> FlowEntry {
        self.cookie = cookie;
        self
    }

    /// Entry priority (higher wins).
    pub(crate) fn priority(&self) -> u16 {
        self.priority
    }

    /// The match of this entry.
    pub(crate) fn matcher(&self) -> &FlowMatch {
        &self.matcher
    }

    /// The action list of this entry.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// The controller cookie.
    pub(crate) fn cookie(&self) -> u64 {
        self.cookie
    }

    /// Packets matched so far.
    pub(crate) fn packet_count(&self) -> u64 {
        self.packets
    }

    /// Bytes matched so far.
    pub(crate) fn byte_count(&self) -> u64 {
        self.bytes
    }

    /// `true` once the hard or the idle timeout has elapsed at `now`.
    fn expired(&self, now: SimTime) -> bool {
        self.hard_timeout
            .is_some_and(|hard| now.saturating_since(self.created_at) >= hard)
            || self
                .idle_timeout
                .is_some_and(|idle| now.saturating_since(self.last_matched) >= idle)
    }
}

/// A priority-ordered flow table with OF 1.0 add/modify/delete semantics.
///
/// Lookup returns the highest-priority matching entry; among equal
/// priorities, the earliest-installed entry wins (deterministic, like a
/// TCAM scan order).
///
/// # Classification index
///
/// Two shapes of entry are indexed in deterministic Fx-hashed maps, each
/// key to its scan-order-first slot:
///
/// * wildcard-free entries (the microflow rules a reactive controller
///   installs per flow), by their full-tuple [`PacketFields`] key;
/// * entries whose match sets `dl_dst` and nothing else (every MAC route
///   a world builder installs), by that destination MAC.
///
/// Every other entry is a *wildcard* entry, kept in a scan-ordered slot
/// list. A lookup hashes the packet's 12-tuple and its `dl_dst`, takes
/// the lower of the two indexed slots, and consults only the (usually
/// empty) wildcard entries that precede it in scan order. `add` searches
/// for a same-(match, priority) entry to replace only when an index
/// already holds the new entry's key, or the entry is a wildcard one, so
/// a table of n routes installs in O(n). The linear scan
/// remains as the general path — and as the semantics reference: a
/// differential proptest at the bottom of this file drives this table and
/// a scan-only implementation through random add/delete/lookup/expire
/// interleavings to prove the index changes nothing observable.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    // Sorted by descending priority; stable within a priority. This order
    // (the "scan order") *is* the match precedence.
    entries: Vec<FlowEntry>,
    // Full-tuple key → scan-order-first wildcard-free entry with that key.
    // Deterministic hasher; only point queries, never iterated.
    exact: HashMap<PacketFields, usize, FxBuildHasher>,
    // Destination MAC → scan-order-first `dl_dst`-only entry for it.
    dl_dst: HashMap<MacAddr, usize, FxBuildHasher>,
    // Scan-order slots of the entries neither map holds.
    wildcard_slots: Vec<usize>,
}

/// Which index, if either, holds an entry with a given match.
enum IndexKey {
    Exact(PacketFields),
    DlDst(MacAddr),
    Wildcard,
}

impl IndexKey {
    fn of(matcher: &FlowMatch) -> IndexKey {
        match (matcher.exact_key(), matcher.dl_dst_key()) {
            (Some(key), _) => IndexKey::Exact(key),
            (None, Some(mac)) => IndexKey::DlDst(mac),
            (None, None) => IndexKey::Wildcard,
        }
    }
}

impl FlowTable {
    /// Creates an empty table.
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over entries in priority order.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, FlowEntry> {
        self.entries.iter()
    }

    /// Installs `entries` in order at `now`, each as [`FlowTable::add`]
    /// would, after sizing the entry list and the `dl_dst` index for them
    /// in one allocation each.
    pub(crate) fn add_all(&mut self, entries: Vec<FlowEntry>, now: SimTime) {
        self.entries.reserve(entries.len());
        let routes = entries
            .iter()
            .filter(|e| e.matcher.dl_dst_key().is_some())
            .count();
        self.dl_dst.reserve(routes);
        for entry in entries {
            self.add(entry, now);
        }
    }

    /// Installs `entry` at `now`. An existing entry with identical match
    /// and priority is replaced (OF 1.0 `OFPFC_ADD` overlap semantics
    /// without `CHECK_OVERLAP`), preserving nothing of the old counters.
    pub fn add(&mut self, mut entry: FlowEntry, now: SimTime) {
        entry.created_at = now;
        entry.last_matched = now;
        let key = IndexKey::of(&entry.matcher);
        // An indexed shape with no entry under its key has no same-match
        // entry to replace: skip the scan.
        let may_repeat = match &key {
            IndexKey::Exact(fields) => self.exact.contains_key(fields),
            IndexKey::DlDst(mac) => self.dl_dst.contains_key(mac),
            IndexKey::Wildcard => true,
        };
        if may_repeat {
            if let Some(existing) = self
                .entries
                .iter_mut()
                .find(|e| e.priority == entry.priority && e.matcher == entry.matcher)
            {
                // Same slot, same matcher: the index stays valid as-is.
                *existing = entry;
                return;
            }
        }
        // Insert after the last entry with priority >= new priority.
        let pos = self
            .entries
            .partition_point(|e| e.priority >= entry.priority);
        if pos == self.entries.len() {
            // Appended last in scan order (every route a world builder
            // installs at one priority): no slot shifts, so the new slot
            // goes in exactly where `reindex` would put it.
            self.index_slot(pos, key);
            self.entries.push(entry);
            return;
        }
        self.entries.insert(pos, entry);
        self.reindex();
    }

    /// Adds slot `i`, whose match has index key `key`, to the index;
    /// slots must arrive in scan order.
    fn index_slot(&mut self, i: usize, key: IndexKey) {
        // First scan-order slot per key wins, mirroring the scan.
        match key {
            IndexKey::Exact(fields) => {
                self.exact.entry(fields).or_insert(i);
            }
            IndexKey::DlDst(mac) => {
                self.dl_dst.entry(mac).or_insert(i);
            }
            IndexKey::Wildcard => self.wildcard_slots.push(i),
        }
    }

    /// Rebuilds both maps and the wildcard slot list after a structural
    /// change (slots shift on insert/remove). O(n) per flow-mod —
    /// negligible next to the per-packet lookups it buys.
    fn reindex(&mut self) {
        self.exact.clear();
        self.dl_dst.clear();
        self.wildcard_slots.clear();
        for i in 0..self.entries.len() {
            let key = IndexKey::of(&self.entries[i].matcher);
            self.index_slot(i, key);
        }
    }

    /// Modifies the actions of all entries matched (strictly or loosely) by
    /// `matcher`; returns how many were updated. When none match, OF 1.0
    /// says modify behaves like add — the caller decides that (the switch
    /// does).
    pub(crate) fn modify(
        &mut self,
        matcher: &FlowMatch,
        priority: Option<u16>,
        actions: &[Action],
    ) -> usize {
        let mut n = 0;
        let mut shared: Option<Arc<[Action]>> = None;
        for e in &mut self.entries {
            let strict_ok = priority.is_none_or(|p| e.priority == p);
            if strict_ok && matcher.subsumes(&e.matcher) {
                e.actions = shared.get_or_insert_with(|| actions.into()).clone();
                n += 1;
            }
        }
        n
    }

    /// Deletes entries. With `strict`, only the exact (match, priority)
    /// entry is removed; otherwise every entry subsumed by `matcher` goes.
    pub(crate) fn delete(&mut self, matcher: &FlowMatch, priority: Option<u16>, strict: bool) {
        let hit = |e: &FlowEntry| {
            if strict {
                priority.is_none_or(|p| e.priority == p) && e.matcher == *matcher
            } else {
                matcher.subsumes(&e.matcher)
            }
        };
        // The common flow-mod deletes nothing (or the table is clean):
        // skip the rebuild.
        if self.entries.iter().any(hit) {
            self.entries.retain(|e| !hit(e));
            self.reindex();
        }
    }

    /// Finds the best entry for `fields`, updating its counters and idle
    /// timestamp. Expired entries are skipped (lazily collected by
    /// `FlowTable::expire`).
    pub fn lookup(&mut self, fields: &PacketFields, now: SimTime) -> Option<&FlowEntry> {
        self.lookup_inner(fields, 0, now)
    }

    /// Like [`FlowTable::lookup`] but also charges `bytes` to the entry.
    pub(crate) fn lookup_counted(
        &mut self,
        fields: &PacketFields,
        bytes: usize,
        now: SimTime,
    ) -> Option<&FlowEntry> {
        self.lookup_inner(fields, bytes as u64, now)
    }

    /// The single classification path behind [`FlowTable::lookup`] and
    /// [`FlowTable::lookup_counted`].
    fn lookup_inner(
        &mut self,
        fields: &PacketFields,
        bytes: u64,
        now: SimTime,
    ) -> Option<&FlowEntry> {
        let i = self.classify(fields, now)?;
        let e = &mut self.entries[i];
        e.packets += 1;
        e.bytes += bytes;
        e.last_matched = now;
        Some(&self.entries[i])
    }

    /// The winning (live, matching) slot for `fields`, or `None` on a
    /// table miss — the indexed equivalent of the priority-ordered scan.
    fn classify(&self, fields: &PacketFields, now: SimTime) -> Option<usize> {
        let exact = self.exact.get(fields).copied();
        let dl_dst = self.dl_dst.get(&fields.dl_dst).copied();
        let live = |j: usize| {
            let e = &self.entries[j];
            !e.expired(now) && e.matcher.matches(fields)
        };
        match exact.into_iter().chain(dl_dst).min() {
            // An indexed entry matches. Any entry beating it sits strictly
            // earlier in scan order, and — since each map holds its key's
            // scan-order-first slot, and the packet has one tuple and one
            // `dl_dst` — such an entry must be a wildcard one. Scan only
            // those.
            Some(i) if !self.entries[i].expired(now) => Some(
                self.wildcard_slots
                    .iter()
                    .copied()
                    .take_while(|&j| j < i)
                    .find(|&j| live(j))
                    .unwrap_or(i),
            ),
            // The indexed entry has lazily expired: a same-key duplicate
            // at lower priority may hide behind it, so fall back to the
            // full reference scan (rare — the next `expire` sweep removes
            // the entry and restores the fast path).
            Some(_) => (0..self.entries.len()).find(|&j| live(j)),
            // No indexed entry carries this tuple or this `dl_dst`; only
            // wildcard entries can match.
            None => self.wildcard_slots.iter().copied().find(|&j| live(j)),
        }
    }

    /// Removes expired entries.
    pub(crate) fn expire(&mut self, now: SimTime) {
        // Steady state: nothing has expired — no rebuild.
        if self.entries.iter().any(|e| e.expired(now)) {
            self.entries.retain(|e| !e.expired(now));
            self.reindex();
        }
    }
}

/// The retired scan-only flow table, kept as the semantics oracle for the
/// indexed [`FlowTable`].
///
/// Every operation is the pre-index implementation verbatim: one
/// priority-ordered linear scan, no auxiliary structures. The
/// differential proptest below (`prop_flow_table`) drives this and the
/// indexed table through identical random interleavings of
/// add/modify/delete/lookup/expire and asserts step-for-step equality of
/// results, counters and table contents.
#[cfg(test)]
mod baseline {
    use super::*;

    /// Scan-only reference implementation of [`FlowTable`].
    #[derive(Debug, Clone, Default)]
    pub(crate) struct LinearFlowTable {
        entries: Vec<FlowEntry>,
    }

    impl LinearFlowTable {
        /// Creates an empty table.
        pub(crate) fn new() -> LinearFlowTable {
            LinearFlowTable::default()
        }

        /// Number of installed entries.
        pub(crate) fn len(&self) -> usize {
            self.entries.len()
        }

        /// Iterates over entries in priority order.
        pub(crate) fn iter(&self) -> std::slice::Iter<'_, FlowEntry> {
            self.entries.iter()
        }

        /// See [`FlowTable::add`].
        pub(crate) fn add(&mut self, mut entry: FlowEntry, now: SimTime) {
            entry.created_at = now;
            entry.last_matched = now;
            if let Some(existing) = self
                .entries
                .iter_mut()
                .find(|e| e.priority == entry.priority && e.matcher == entry.matcher)
            {
                *existing = entry;
                return;
            }
            let pos = self
                .entries
                .partition_point(|e| e.priority >= entry.priority);
            self.entries.insert(pos, entry);
        }

        /// See [`FlowTable::modify`].
        pub(crate) fn modify(
            &mut self,
            matcher: &FlowMatch,
            priority: Option<u16>,
            actions: &[Action],
        ) -> usize {
            let mut n = 0;
            let mut shared: Option<Arc<[Action]>> = None;
            for e in &mut self.entries {
                let strict_ok = priority.is_none_or(|p| e.priority == p);
                if strict_ok && matcher.subsumes(&e.matcher) {
                    e.actions = shared.get_or_insert_with(|| actions.into()).clone();
                    n += 1;
                }
            }
            n
        }

        /// See [`FlowTable::delete`].
        pub(crate) fn delete(&mut self, matcher: &FlowMatch, priority: Option<u16>, strict: bool) {
            self.entries.retain(|e| {
                !if strict {
                    priority.is_none_or(|p| e.priority == p) && e.matcher == *matcher
                } else {
                    matcher.subsumes(&e.matcher)
                }
            });
        }

        /// See [`FlowTable::lookup_counted`].
        pub(crate) fn lookup_counted(
            &mut self,
            fields: &PacketFields,
            bytes: usize,
            now: SimTime,
        ) -> Option<&FlowEntry> {
            let i = self
                .entries
                .iter()
                .position(|e| !e.expired(now) && e.matcher.matches(fields))?;
            let e = &mut self.entries[i];
            e.packets += 1;
            e.bytes += bytes as u64;
            e.last_matched = now;
            Some(&self.entries[i])
        }

        /// See [`FlowTable::expire`].
        pub(crate) fn expire(&mut self, now: SimTime) {
            self.entries.retain(|e| !e.expired(now));
        }
    }
}

/// Differential property test: the indexed [`FlowTable`] is observably
/// identical to the retired scan-only [`baseline::LinearFlowTable`].
///
/// Both tables are driven through the same random interleaving of
/// add/modify/delete/lookup/expire with advancing time, over small value
/// domains (so exact keys collide, wildcards overlap exact entries at
/// every priority, and timeouts actually fire). After every step the
/// observable result *and* the complete table state — entry order,
/// per-entry counters and timestamps, lookup/miss totals — must agree.
#[cfg(test)]
mod prop_flow_table {
    use super::baseline::LinearFlowTable;
    use super::*;
    use crate::ports::OfPort;
    use netco_net::MacAddr;
    use netco_sim::SimDuration;
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    /// One scripted operation against both tables.
    #[derive(Debug, Clone)]
    enum Op {
        Add {
            matcher: FlowMatch,
            priority: u16,
            out_port: u16,
            idle_ms: Option<u64>,
            hard_ms: Option<u64>,
        },
        Delete {
            matcher: FlowMatch,
            priority: Option<u16>,
            strict: bool,
        },
        Modify {
            matcher: FlowMatch,
            priority: Option<u16>,
            out_port: u16,
        },
        Lookup {
            fields: PacketFields,
            bytes: usize,
        },
        Expire,
    }

    /// Small domains so keys collide and wildcards overlap exact entries.
    fn arb_fields() -> impl Strategy<Value = PacketFields> {
        (
            0u16..3, // in_port
            0u32..3, // dl_src index
            0u32..4, // dl_dst index
            0u8..3,  // nw_proto selector
            0u8..3,  // ip low octet selector
            0u16..2, // tp_dst selector
        )
            .prop_map(|(in_port, src, dst, proto, ip, tp)| PacketFields {
                in_port,
                dl_src: MacAddr::local(src),
                dl_dst: MacAddr::local(dst),
                dl_type: 0x0800,
                nw_proto: [1, 6, 17][proto as usize],
                nw_src: Ipv4Addr::new(10, 0, 0, ip + 1),
                nw_dst: Ipv4Addr::new(10, 0, 0, 3 - ip),
                tp_src: 5000,
                tp_dst: 6000 + tp,
                ..PacketFields::default()
            })
    }

    /// The wildcard-free match for a generated tuple (exercising the exact
    /// index), its `dl_dst` alone (the `dl_dst` index, which a random
    /// subset reaches 1 time in 8,192), or a random wildcard subset of it
    /// (the scan path and the indexed/wildcard precedence interplay).
    fn arb_matcher() -> impl Strategy<Value = FlowMatch> {
        (arb_fields(), 0u16..=0x0fff, 0u8..3).prop_map(|(fields, mask, shape)| {
            let full = FlowMatch::exact(&fields);
            match shape {
                0 => return full,
                1 => return FlowMatch::any().with_dl_dst(fields.dl_dst),
                _ => {}
            }
            // Keep each concrete field iff its mask bit is set; bit 12
            // cleared means mask 0 is possible → FlowMatch::any().
            FlowMatch {
                in_port: full.in_port.filter(|_| mask & 0x001 != 0),
                dl_src: full.dl_src.filter(|_| mask & 0x002 != 0),
                dl_dst: full.dl_dst.filter(|_| mask & 0x004 != 0),
                dl_vlan: full.dl_vlan.filter(|_| mask & 0x008 != 0),
                dl_vlan_pcp: full.dl_vlan_pcp.filter(|_| mask & 0x010 != 0),
                dl_type: full.dl_type.filter(|_| mask & 0x020 != 0),
                nw_tos: full.nw_tos.filter(|_| mask & 0x040 != 0),
                nw_proto: full.nw_proto.filter(|_| mask & 0x080 != 0),
                nw_src: full.nw_src.filter(|_| mask & 0x100 != 0),
                nw_dst: full.nw_dst.filter(|_| mask & 0x200 != 0),
                tp_src: full.tp_src.filter(|_| mask & 0x400 != 0),
                tp_dst: full.tp_dst.filter(|_| mask & 0x800 != 0),
            }
        })
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (
                arb_matcher(),
                0u16..4,
                1u16..4,
                proptest::option::of(1u64..5),
                proptest::option::of(1u64..5),
            )
                .prop_map(|(matcher, priority, out_port, idle_ms, hard_ms)| Op::Add {
                    matcher,
                    priority,
                    out_port,
                    idle_ms,
                    hard_ms,
                }),
            (
                arb_matcher(),
                proptest::option::of(0u16..4),
                proptest::arbitrary::any::<bool>()
            )
                .prop_map(|(matcher, priority, strict)| Op::Delete {
                    matcher,
                    priority,
                    strict,
                }),
            (arb_matcher(), proptest::option::of(0u16..4), 5u16..8).prop_map(
                |(matcher, priority, out_port)| Op::Modify {
                    matcher,
                    priority,
                    out_port,
                }
            ),
            (arb_fields(), 0usize..2000).prop_map(|(fields, bytes)| Op::Lookup { fields, bytes }),
            (arb_fields(), 0usize..2000).prop_map(|(fields, bytes)| Op::Lookup { fields, bytes }),
            (arb_fields(), 0usize..2000).prop_map(|(fields, bytes)| Op::Lookup { fields, bytes }),
            Just(Op::Expire),
        ]
    }

    fn out(p: u16) -> Vec<Action> {
        vec![Action::Output(OfPort::Physical(p))]
    }

    fn entry(
        priority: u16,
        matcher: FlowMatch,
        p: u16,
        idle: Option<u64>,
        hard: Option<u64>,
    ) -> FlowEntry {
        let mut e = FlowEntry::new(priority, matcher, out(p));
        if let Some(ms) = idle {
            e = e.with_idle_timeout(SimDuration::from_millis(ms));
        }
        if let Some(ms) = hard {
            e = e.with_hard_timeout(SimDuration::from_millis(ms));
        }
        e
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn indexed_table_matches_linear_baseline(
            ops in proptest::collection::vec((arb_op(), 0u64..1500), 1..60),
        ) {
            let mut indexed = FlowTable::new();
            let mut linear = LinearFlowTable::new();
            let mut now = SimTime::ZERO;
            for (step, (op, advance_us)) in ops.into_iter().enumerate() {
                now += SimDuration::from_micros(advance_us);
                match op {
                    Op::Add { matcher, priority, out_port, idle_ms, hard_ms } => {
                        let e = entry(priority, matcher, out_port, idle_ms, hard_ms);
                        indexed.add(e.clone(), now);
                        linear.add(e, now);
                    }
                    Op::Delete { matcher, priority, strict } => {
                        indexed.delete(&matcher, priority, strict);
                        linear.delete(&matcher, priority, strict);
                    }
                    Op::Modify { matcher, priority, out_port } => {
                        let a = indexed.modify(&matcher, priority, &out(out_port));
                        let b = linear.modify(&matcher, priority, &out(out_port));
                        prop_assert_eq!(a, b, "modify count diverged at step {}", step);
                    }
                    Op::Lookup { fields, bytes } => {
                        let a = indexed.lookup_counted(&fields, bytes, now).cloned();
                        let b = linear.lookup_counted(&fields, bytes, now).cloned();
                        prop_assert_eq!(a, b, "lookup diverged at step {}", step);
                    }
                    Op::Expire => {
                        indexed.expire(now);
                        linear.expire(now);
                    }
                }
                // Full-state equality after every step: entry order, actions,
                // counters, timestamps, and the aggregate statistics.
                let a: Vec<FlowEntry> = indexed.iter().cloned().collect();
                let b: Vec<FlowEntry> = linear.iter().cloned().collect();
                prop_assert_eq!(a, b, "table contents diverged at step {}", step);
                prop_assert_eq!(indexed.len(), linear.len());
            }
        }

        /// The append path of `add` indexes the new slot in place; after
        /// any sequence of adds (appends and mid-table inserts) the index
        /// is the one `reindex` rebuilds, and lookups agree with it.
        #[test]
        fn appending_adds_index_like_a_rebuild(
            adds in proptest::collection::vec((arb_matcher(), 0u16..4, 1u16..4), 1..80),
            probes in proptest::collection::vec(arb_fields(), 1..16),
        ) {
            let mut table = FlowTable::new();
            for (matcher, priority, out_port) in adds {
                table.add(entry(priority, matcher, out_port, None, None), SimTime::ZERO);
                let mut rebuilt = table.clone();
                rebuilt.reindex();
                prop_assert_eq!(&table.exact, &rebuilt.exact);
                prop_assert_eq!(&table.dl_dst, &rebuilt.dl_dst);
                prop_assert_eq!(&table.wildcard_slots, &rebuilt.wildcard_slots);
                for fields in &probes {
                    prop_assert_eq!(
                        table.classify(fields, SimTime::ZERO),
                        rebuilt.classify(fields, SimTime::ZERO)
                    );
                }
            }
        }

        #[test]
        fn lookup_without_wildcards_hits_index(
            fields in arb_fields(),
            bytes in 0usize..5000,
        ) {
            // A purely exact-match table: the indexed and baseline tables must
            // agree on the hit and its charged counters.
            let mut indexed = FlowTable::new();
            let mut linear = LinearFlowTable::new();
            let e = entry(100, FlowMatch::exact(&fields), 2, None, None);
            indexed.add(e.clone(), SimTime::ZERO);
            linear.add(e, SimTime::ZERO);
            let a = indexed.lookup_counted(&fields, bytes, SimTime::ZERO).cloned();
            let b = linear.lookup_counted(&fields, bytes, SimTime::ZERO).cloned();
            prop_assert_eq!(a.as_ref(), b.as_ref());
            prop_assert_eq!(a.expect("exact hit").byte_count(), bytes as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::OfPort;
    use netco_net::MacAddr;

    fn out(p: u16) -> Vec<Action> {
        vec![Action::Output(OfPort::Physical(p))]
    }

    fn fields_to(mac: MacAddr) -> PacketFields {
        PacketFields {
            dl_dst: mac,
            ..PacketFields::default()
        }
    }

    #[test]
    fn priority_order_wins() {
        let mut t = FlowTable::new();
        t.add(FlowEntry::new(10, FlowMatch::any(), out(1)), SimTime::ZERO);
        t.add(
            FlowEntry::new(100, FlowMatch::any().with_dl_dst(MacAddr::local(5)), out(2)),
            SimTime::ZERO,
        );
        let e = t
            .lookup(&fields_to(MacAddr::local(5)), SimTime::ZERO)
            .unwrap();
        assert_eq!(e.actions(), out(2).as_slice());
        let e = t
            .lookup(&fields_to(MacAddr::local(6)), SimTime::ZERO)
            .unwrap();
        assert_eq!(e.actions(), out(1).as_slice());
    }

    #[test]
    fn equal_priority_first_added_wins() {
        let mut t = FlowTable::new();
        t.add(FlowEntry::new(10, FlowMatch::any(), out(1)), SimTime::ZERO);
        t.add(
            FlowEntry::new(10, FlowMatch::any().with_in_port(0), out(2)),
            SimTime::ZERO,
        );
        let e = t.lookup(&PacketFields::default(), SimTime::ZERO).unwrap();
        assert_eq!(e.actions(), out(1).as_slice());
    }

    #[test]
    fn identical_add_replaces() {
        let mut t = FlowTable::new();
        let m = FlowMatch::any().with_in_port(3);
        t.add(FlowEntry::new(10, m.clone(), out(1)), SimTime::ZERO);
        t.add(FlowEntry::new(10, m, out(2)), SimTime::ZERO);
        assert_eq!(t.len(), 1);
        let f = PacketFields {
            in_port: 3,
            ..PacketFields::default()
        };
        assert_eq!(
            t.lookup(&f, SimTime::ZERO).unwrap().actions(),
            out(2).as_slice()
        );
    }

    #[test]
    fn counters_accumulate() {
        let mut t = FlowTable::new();
        t.add(FlowEntry::new(1, FlowMatch::any(), out(1)), SimTime::ZERO);
        t.lookup_counted(&PacketFields::default(), 100, SimTime::ZERO);
        t.lookup_counted(&PacketFields::default(), 200, SimTime::ZERO);
        let e = t.iter().next().unwrap();
        assert_eq!(e.packet_count(), 2);
        assert_eq!(e.byte_count(), 300);
    }

    #[test]
    fn hard_timeout_expires() {
        let mut t = FlowTable::new();
        t.add(
            FlowEntry::new(1, FlowMatch::any(), out(1))
                .with_hard_timeout(SimDuration::from_secs(1)),
            SimTime::ZERO,
        );
        let just_before = SimTime::ZERO + SimDuration::from_millis(999);
        assert!(t.lookup(&PacketFields::default(), just_before).is_some());
        let after = SimTime::ZERO + SimDuration::from_secs(1);
        assert!(t.lookup(&PacketFields::default(), after).is_none());
        t.expire(after);
        assert!(t.is_empty());
    }

    #[test]
    fn idle_timeout_refreshes_on_match() {
        let mut t = FlowTable::new();
        t.add(
            FlowEntry::new(1, FlowMatch::any(), out(1))
                .with_idle_timeout(SimDuration::from_secs(1)),
            SimTime::ZERO,
        );
        let f = PacketFields::default();
        // Touch at 0.9 s, so expiry moves to 1.9 s.
        assert!(t
            .lookup(&f, SimTime::ZERO + SimDuration::from_millis(900))
            .is_some());
        assert!(t
            .lookup(&f, SimTime::ZERO + SimDuration::from_millis(1800))
            .is_some());
        t.expire(SimTime::ZERO + SimDuration::from_millis(1700));
        assert_eq!(t.len(), 1);
        assert!(t
            .lookup(&f, SimTime::ZERO + SimDuration::from_millis(2900))
            .is_none());
        t.expire(SimTime::ZERO + SimDuration::from_millis(2900));
        assert!(t.is_empty());
    }

    #[test]
    fn strict_and_loose_delete() {
        let mut t = FlowTable::new();
        let specific = FlowMatch::any().with_dl_type(0x0800).with_nw_proto(6);
        t.add(FlowEntry::new(5, specific.clone(), out(1)), SimTime::ZERO);
        t.add(
            FlowEntry::new(7, FlowMatch::any().with_dl_type(0x0800), out(2)),
            SimTime::ZERO,
        );
        // Strict delete with the general match removes only the exact entry.
        t.delete(&FlowMatch::any().with_dl_type(0x0800), Some(7), true);
        assert_eq!(t.len(), 1);
        assert_eq!(t.iter().next().unwrap().matcher(), &specific);
        // Loose delete with a general match removes subsumed entries.
        t.delete(&FlowMatch::any().with_dl_type(0x0800), None, false);
        assert!(t.is_empty());
    }

    #[test]
    fn modify_rewrites_actions() {
        let mut t = FlowTable::new();
        t.add(
            FlowEntry::new(5, FlowMatch::any().with_in_port(1), out(1)),
            SimTime::ZERO,
        );
        let n = t.modify(&FlowMatch::any(), None, &out(9));
        assert_eq!(n, 1);
        let f = PacketFields {
            in_port: 1,
            ..PacketFields::default()
        };
        assert_eq!(
            t.lookup(&f, SimTime::ZERO).unwrap().actions(),
            out(9).as_slice()
        );
    }

    /// A MAC route.
    fn route(priority: u16, mac: MacAddr, port: u16) -> FlowEntry {
        FlowEntry::new(priority, FlowMatch::any().with_dl_dst(mac), out(port))
    }

    #[test]
    fn repeated_dl_dst_route_replaces_the_first_in_place() {
        let mut t = FlowTable::new();
        t.add(route(100, MacAddr::local(1), 1), SimTime::ZERO);
        t.add(route(100, MacAddr::local(2), 2), SimTime::ZERO);
        t.add(route(100, MacAddr::local(1), 3), SimTime::ZERO);
        assert_eq!(t.len(), 2);
        let slots: Vec<_> = t.iter().map(|e| e.actions().to_vec()).collect();
        assert_eq!(slots, [out(3), out(2)], "replaced in its own slot");
        assert_eq!(t.dl_dst.get(&MacAddr::local(1)), Some(&0));
        let e = t.lookup(&fields_to(MacAddr::local(1)), SimTime::ZERO);
        assert_eq!(e.unwrap().actions(), out(3).as_slice());
    }

    #[test]
    fn one_mac_at_two_priorities_resolves_to_the_higher() {
        let mut t = FlowTable::new();
        let mac = MacAddr::local(4);
        t.add(route(10, mac, 1), SimTime::ZERO);
        // Lands before the first route in scan order: the index rebuilds.
        t.add(route(200, mac, 2), SimTime::ZERO);
        assert_eq!(t.len(), 2, "different priorities: no replacement");
        assert_eq!(t.dl_dst.get(&mac), Some(&0));
        let e = t.lookup(&fields_to(mac), SimTime::ZERO).unwrap();
        assert_eq!(e.actions(), out(2).as_slice());
        // A wildcard entry between them still loses to the higher route.
        t.add(FlowEntry::new(100, FlowMatch::any(), out(7)), SimTime::ZERO);
        let e = t.lookup(&fields_to(mac), SimTime::ZERO).unwrap();
        assert_eq!(e.actions(), out(2).as_slice());
    }

    #[test]
    fn expired_indexed_route_falls_back_to_the_scan() {
        let mut t = FlowTable::new();
        let mac = MacAddr::local(5);
        t.add(
            route(200, mac, 1).with_hard_timeout(SimDuration::from_secs(1)),
            SimTime::ZERO,
        );
        t.add(route(100, mac, 2), SimTime::ZERO);
        let before = SimTime::ZERO + SimDuration::from_millis(999);
        let e = t.lookup(&fields_to(mac), before).unwrap();
        assert_eq!(e.actions(), out(1).as_slice());
        // The indexed slot has expired but is not yet swept: the scan
        // finds the lower-priority route behind it.
        let after = SimTime::ZERO + SimDuration::from_secs(1);
        assert_eq!(t.dl_dst.get(&mac), Some(&0));
        let e = t.lookup(&fields_to(mac), after).unwrap();
        assert_eq!(e.actions(), out(2).as_slice());
        t.expire(after);
        assert_eq!(t.dl_dst.get(&mac), Some(&0), "the sweep re-indexes");
        assert_eq!(t.len(), 1);
    }
}
