//! The one "switch with MAC-destination routes".

use netco_adversary::{ActivationWindow, Behavior, MaliciousSwitch};
use netco_net::{Device, MacAddr, PortId};
use netco_openflow::{Action, FlowEntry, FlowMatch, OfPort, OfSwitch};

/// A switch that forwards by destination MAC: an [`OfSwitch`] with one
/// priority-100 `dl_dst → output` entry per route, in iteration order,
/// followed by `extra`; or, given `behaviors`, a [`MaliciousSwitch`]
/// carrying the same routes (the ones the controller believes are
/// installed) and misbehaving as scripted. A malicious switch takes no
/// `extra` entries — it ignores its rules, which is the point.
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
            let mut sw = OfSwitch::new(dpid);
            for (mac, port) in routes {
                sw.preinstall(FlowEntry::new(
                    100,
                    FlowMatch::any().with_dl_dst(mac),
                    vec![Action::Output(OfPort::Physical(port))],
                ));
            }
            for entry in extra {
                sw.preinstall(entry);
            }
            Box::new(sw)
        }
    }
}
