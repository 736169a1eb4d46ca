//! The trusted hub: a stateless duplicator.

use netco_net::{Ctx, Device, Frame, PortId};

/// The simplest trusted component of the combiner (paper §III): every frame
/// received on any port is copied to every *other* port, statelessly.
///
/// The full evaluation topologies use the richer [`crate::GuardSwitch`]
/// (which combines hub and compare plumbing, like the paper's `s1`/`s2`);
/// the plain `Hub` is useful for one-directional deployments and tests.
#[derive(Debug, Default)]
pub struct Hub {
    copies: u64,
}

impl Hub {
    /// Creates a hub.
    pub fn new() -> Hub {
        Hub::default()
    }

    /// Total copies emitted.
    #[cfg(test)]
    pub(crate) fn copies(&self) -> u64 {
        self.copies
    }
}

impl Device for Hub {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame) {
        let mut targets = ctx.ports();
        targets.retain(|&p| p != port);
        self.copies += targets.len() as u64;
        // Move the frame into the final send — k-1 refcount bumps, not k.
        if let Some((&last, rest)) = targets.split_last() {
            for &p in rest {
                ctx.send_frame(p, frame.clone());
            }
            ctx.send_frame(last, frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use netco_net::testutil::CollectorDevice;
    use netco_net::{CpuModel, LinkSpec, World};
    use netco_sim::SimDuration;

    #[test]
    fn duplicates_to_all_other_ports() {
        let mut w = World::new(1);
        let hub = w.add_node("hub", Hub::new(), CpuModel::default());
        let mut sinks = Vec::new();
        for i in 0..3 {
            let s = w.add_node(
                format!("sink{i}"),
                CollectorDevice::default(),
                CpuModel::default(),
            );
            w.connect(hub, PortId(i + 1), s, PortId(0), LinkSpec::ideal());
            sinks.push(s);
        }
        w.inject_frame(hub, PortId(0), Bytes::from_static(b"dup me"));
        w.run_for(SimDuration::from_millis(1));
        for s in &sinks {
            assert_eq!(w.device::<CollectorDevice>(*s).unwrap().frames.len(), 1);
        }
        assert_eq!(w.device::<Hub>(hub).unwrap().copies(), 3);
    }

    #[test]
    fn does_not_reflect_to_ingress() {
        let mut w = World::new(1);
        let hub = w.add_node("hub", Hub::new(), CpuModel::default());
        let a = w.add_node("a", CollectorDevice::default(), CpuModel::default());
        let b = w.add_node("b", CollectorDevice::default(), CpuModel::default());
        w.connect(hub, PortId(0), a, PortId(0), LinkSpec::ideal());
        w.connect(hub, PortId(1), b, PortId(0), LinkSpec::ideal());
        w.inject_frame(hub, PortId(0), Bytes::from_static(b"x"));
        w.run_for(SimDuration::from_millis(1));
        assert_eq!(w.device::<CollectorDevice>(a).unwrap().frames.len(), 0);
        assert_eq!(w.device::<CollectorDevice>(b).unwrap().frames.len(), 1);
    }
}
