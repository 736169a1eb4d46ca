//! What every placement of the compare shares around [`CompareCore`].

use std::vec::Drain;

use netco_net::{Ctx, Frame};
use netco_sim::{EventLog, SimDuration, SimTime};
use netco_telemetry::TelemetrySink;

use super::core::{CompareAction, CompareCore, LaneInfo};
use crate::config::CompareConfig;
use crate::events::{trace_security_event, SecurityEvent};

/// A [`CompareCore`] plus the verdict record around it: the security event
/// log, its chrome-trace markers, the telemetry scope and the sweep
/// cadence. This is what a placement embeds — the central server
/// ([`Compare`](crate::Compare)), the controller app
/// ([`PoxCompareApp`](crate::PoxCompareApp)), the inband guard, the control
/// voter and the virtual guard each hold one and keep only their transport
/// of `Release` / `BlockReplicaPort` / `Stall`.
///
/// The core itself stays log-free and I/O-free (timing loops drive it
/// directly); the host is the one writer of the event log.
///
/// A call's actions wait in the one buffer the core keeps: the host moves
/// the events out into its log and the placement drains the rest from
/// what `observe` / `sweep` hand back, so a call allocates no action
/// list.
#[derive(Debug)]
pub struct CompareHost {
    core: CompareCore,
    events: EventLog<SecurityEvent>,
    sink: TelemetrySink,
    /// The hosting node's name: metric scope and trace process.
    scope: String,
}

impl CompareHost {
    /// Creates a host with no lanes attached.
    pub fn new(cfg: CompareConfig) -> CompareHost {
        CompareHost {
            core: CompareCore::new(cfg),
            events: EventLog::unbounded(),
            sink: TelemetrySink::disabled(),
            scope: String::new(),
        }
    }

    /// Registers (or replaces) a lane (see [`CompareCore::attach_lane`]).
    pub fn attach_lane(&mut self, lane: u16, info: LaneInfo) {
        self.core.attach_lane(lane, info);
    }

    /// The voting core, for inspection (statistics, supervisor state).
    pub(crate) fn core(&self) -> &CompareCore {
        &self.core
    }

    /// Every security event the core raised, in emission order.
    pub(crate) fn events(&self) -> &EventLog<SecurityEvent> {
        &self.events
    }

    /// Installs the world's telemetry under the hosting node's name: the
    /// core's cells become `compare.<node>.*` rows, verdicts feed the
    /// packet lifecycle, events mark the node's trace timeline. Call from
    /// the hosting device's `on_start`; a disabled sink installs nothing.
    pub(crate) fn start(&mut self, ctx: &Ctx<'_>) {
        if ctx.telemetry().is_enabled() {
            self.sink = ctx.telemetry().clone();
            self.scope = ctx.node_name(ctx.node()).to_string();
            self.core.set_telemetry(&self.sink, &self.scope);
        }
    }

    /// How often the hosting device must call [`CompareHost::sweep`].
    pub(crate) fn sweep_interval(&self) -> SimDuration {
        self.core.config().sweep_interval()
    }

    /// [`CompareCore::observe`], with the events it raised moved into the
    /// log: what comes back needs transport, nothing else.
    pub fn observe(
        &mut self,
        lane: u16,
        in_port: u16,
        frame: impl Into<Frame>,
        now: SimTime,
    ) -> Drain<'_, CompareAction> {
        self.core.record(lane, in_port, frame.into(), now);
        self.transport(now)
    }

    /// [`CompareCore::sweep`], events logged as in
    /// [`observe`](CompareHost::observe).
    pub(crate) fn sweep(&mut self, now: SimTime) -> Drain<'_, CompareAction> {
        self.core.expire(now);
        self.transport(now)
    }

    /// Moves the events among the core's queued actions into the log
    /// (tracing each) and hands back the rest, in order.
    fn transport(&mut self, now: SimTime) -> Drain<'_, CompareAction> {
        let is_event = |a: &mut CompareAction| matches!(a, CompareAction::Event(_));
        for action in self.core.actions.extract_if(.., is_event) {
            if let CompareAction::Event(e) = action {
                trace_security_event(&self.sink, &self.scope, &e, now.as_nanos());
                self.events.push(now, e);
            }
        }
        self.core.actions.drain(..)
    }
}
