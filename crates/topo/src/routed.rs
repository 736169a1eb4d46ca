//! The one "switch with MAC-destination routes".

use std::sync::Arc;

use netco_adversary::{ActivationWindow, Behavior, MaliciousSwitch};
use netco_net::{Device, MacAddr, PortId};
use netco_openflow::{Action, FlowEntry, FlowMatch, OfPort, OfSwitch};

/// Output ports below this get one action list per switch, shared by
/// every route toward the port; a route out of a higher port (no graph
/// the reproduction builds has one) gets a list of its own.
const SHARED_PORT_LISTS: usize = 64;

/// A switch that forwards by destination MAC: an [`OfSwitch`] with one
/// priority-100 `dl_dst → output` entry per route, in iteration order,
/// followed by `extra`; or, given `behaviors`, a [`MaliciousSwitch`]
/// carrying the same routes (the ones the controller believes are
/// installed) and misbehaving as scripted. A malicious switch takes no
/// `extra` entries — it ignores its rules, which is the point.
///
/// The routes toward one port share one `[Output(port)]` action list,
/// built on the port's first route, and the switch stages its entries in
/// one allocation sized from the iterators' upper bounds; nothing else
/// is allocated per route.
///
/// Returned boxed: [`netco_net::World::add_node`] stores that box as is.
pub fn routed_switch(
    dpid: u64,
    routes: impl IntoIterator<Item = (MacAddr, u16)>,
    extra: impl IntoIterator<Item = FlowEntry>,
    behaviors: Option<&[(Behavior, ActivationWindow)]>,
) -> Box<dyn Device> {
    match behaviors {
        Some(behaviors) => {
            let mut m = MaliciousSwitch::new();
            for (mac, port) in routes {
                m.route(mac, PortId(port));
            }
            for (behavior, window) in behaviors {
                m.add_behavior(behavior.clone(), *window);
            }
            Box::new(m)
        }
        None => {
            let (routes, extra) = (routes.into_iter(), extra.into_iter());
            let upper = |hint: (usize, Option<usize>)| hint.1.unwrap_or(hint.0);
            let mut sw = OfSwitch::new(dpid);
            sw.reserve_preinstalled(upper(routes.size_hint()) + upper(extra.size_hint()));
            let mut lists: [Option<Arc<[Action]>>; SHARED_PORT_LISTS] =
                std::array::from_fn(|_| None);
            let output =
                |port| -> Arc<[Action]> { Arc::new([Action::Output(OfPort::Physical(port))]) };
            for (mac, port) in routes {
                let actions = match lists.get_mut(usize::from(port)) {
                    Some(list) => Arc::clone(list.get_or_insert_with(|| output(port))),
                    None => output(port),
                };
                sw.preinstall(FlowEntry::new(
                    100,
                    FlowMatch::any().with_dl_dst(mac),
                    actions,
                ));
            }
            for entry in extra {
                sw.preinstall(entry);
            }
            Box::new(sw)
        }
    }
}
