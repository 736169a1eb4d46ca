//! Scripted, deterministic fault injection for the substrate.
//!
//! A [`FaultPlan`] is a declarative, seedable script that a scenario
//! attaches once before the run starts:
//!
//! * **Outages** — a link goes down for an [`ActivationWindow`] and (if the
//!   window is bounded) comes back up, modelling a crash–recovery cycle.
//! * **Flaps** — repeated down/up cycles, the classic misbehaving optic.
//! * **Loss** — each frame entering the link inside the window is dropped
//!   independently with a fixed probability.
//! * **Corruption** — each frame inside the window has one bit flipped with
//!   a fixed probability (NetCo's compare detects the mismatch downstream).
//! * **Delay** and **reordering** — frames admitted inside the window
//!   arrive later, always or with a fixed probability.
//!
//! Every fault is a window judged when a frame or control message is
//! admitted, on links and control channels alike: a direction is down at
//! `now` iff one of its outage windows `[from, until)` contains `now` (a
//! flap schedule is its list of down windows), so overlapping outages
//! keep it down through their union. Frames already in flight are
//! unaffected. Probabilistic faults draw from a dedicated stream per link
//! direction and per control channel direction derived from
//! [`FaultPlan::seed`], **not** from the world RNG — injecting faults never
//! perturbs CPU-jitter or workload streams, so a faulty run differs from a
//! clean run only where the faults actually bite, and reruns are
//! bit-for-bit reproducible.

use netco_sim::{ActivationWindow, SimDuration, SimTime};

use crate::id::LinkId;

/// One scripted impairment, independent of the link it applies to.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Hard outage: the link is down for the whole window `[from, until)`
    /// (forever when the window is unbounded), then comes back up unless
    /// another outage window still holds it down.
    Outage(ActivationWindow),
    /// Repeated down/up cycles: down at `first_down`, up `down_for` later,
    /// down again `up_for` after that, for `cycles` total cycles.
    Flaps {
        /// Start of the first outage.
        first_down: SimTime,
        /// Length of each outage.
        down_for: SimDuration,
        /// Healthy gap between consecutive outages.
        up_for: SimDuration,
        /// Number of down/up cycles (0 = no-op).
        cycles: u32,
    },
    /// Intermittent loss: while the window is active, each frame entering
    /// the link is dropped with `probability`.
    Loss {
        /// Per-frame drop probability in `[0, 1]`.
        probability: f64,
        /// When the impairment is active.
        window: ActivationWindow,
    },
    /// Intermittent corruption: while the window is active, each frame has
    /// one bit of a random byte flipped with `probability`.
    Corrupt {
        /// Per-frame corruption probability in `[0, 1]`.
        probability: f64,
        /// When the impairment is active.
        window: ActivationWindow,
    },
    /// Added latency: while the window is active, every admitted frame (or
    /// control message) arrives `extra` later than the substrate latency.
    /// Deterministic — no RNG draw.
    Delay {
        /// Extra one-way latency added to each admission in the window.
        extra: SimDuration,
        /// When the impairment is active.
        window: ActivationWindow,
    },
    /// Reordering: while the window is active, each admitted frame is
    /// independently held back an extra `hold` with `probability`, letting
    /// later frames overtake it (per-link RNG keyed off the plan seed).
    Reorder {
        /// Per-frame hold-back probability in `[0, 1]`.
        probability: f64,
        /// Extra latency a held-back frame suffers.
        hold: SimDuration,
        /// When the impairment is active.
        window: ActivationWindow,
    },
}

/// A [`FaultKind`] bound to the link it impairs.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// The impaired link.
    pub link: LinkId,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A [`FaultKind`] bound to one *direction* of a control channel.
///
/// Control channels are not links — they are the out-of-band
/// controller↔switch paths registered via
/// [`World::connect_control`](crate::World::connect_control) — so the
/// control plane gets its own fault targeting: messages sent `from → to`
/// while a fault is active are dropped (Outage/Flaps/Loss), bit-flipped
/// (Corrupt) or late (Delay/Reorder). Probabilistic draws come from a
/// dedicated per-pair RNG derived from the plan seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlFaultSpec {
    /// Sender side of the impaired direction.
    pub from: crate::id::NodeId,
    /// Receiver side of the impaired direction.
    pub to: crate::id::NodeId,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A deterministic script of substrate faults for one run.
///
/// Build with the chained helpers and hand the finished plan to
/// [`World::apply_fault_plan`](crate::World::apply_fault_plan) before the
/// run starts.
///
/// # Example
///
/// ```
/// use netco_net::{FaultPlan, LinkSpec, World};
/// use netco_net::testutil::{CollectorDevice, EchoDevice};
/// use netco_sim::{ActivationWindow, SimDuration, SimTime};
///
/// let mut w = World::new(1);
/// let a = w.add_node("a", EchoDevice::default(), Default::default());
/// let b = w.add_node("b", CollectorDevice::default(), Default::default());
/// let link = w.connect(a, 0.into(), b, 0.into(), LinkSpec::ideal());
/// let plan = FaultPlan::new(42).outage(
///     link,
///     ActivationWindow::between(SimTime::ZERO, SimTime::from_nanos(1_000)),
/// );
/// w.apply_fault_plan(&plan);
/// w.inject_frame(a, 0.into(), bytes::Bytes::from_static(b"dropped"));
/// w.run_for(SimDuration::from_micros(10));
/// assert_eq!(w.device::<CollectorDevice>(b).unwrap().frames.len(), 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the probabilistic impairments (loss/corruption). Separate
    /// from the world seed so fault randomness never perturbs other streams.
    pub seed: u64,
    /// The scripted faults, applied in order.
    pub faults: Vec<FaultSpec>,
    /// Scripted control-channel faults, applied in order.
    pub control_faults: Vec<ControlFaultSpec>,
}

impl FaultPlan {
    /// An empty plan drawing probabilistic faults from `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            faults: Vec::new(),
            control_faults: Vec::new(),
        }
    }

    /// Adds an arbitrary fault.
    pub fn with(mut self, link: LinkId, kind: FaultKind) -> FaultPlan {
        self.faults.push(FaultSpec { link, kind });
        self
    }

    /// Adds a hard outage over `window`.
    pub fn outage(self, link: LinkId, window: ActivationWindow) -> FaultPlan {
        self.with(link, FaultKind::Outage(window))
    }

    /// Adds `cycles` down/up flaps starting at `first_down`.
    pub fn flaps(
        self,
        link: LinkId,
        first_down: SimTime,
        down_for: SimDuration,
        up_for: SimDuration,
        cycles: u32,
    ) -> FaultPlan {
        self.with(
            link,
            FaultKind::Flaps {
                first_down,
                down_for,
                up_for,
                cycles,
            },
        )
    }

    /// Adds intermittent loss with the given per-frame probability.
    pub fn loss(self, link: LinkId, probability: f64, window: ActivationWindow) -> FaultPlan {
        self.with(
            link,
            FaultKind::Loss {
                probability,
                window,
            },
        )
    }

    /// Adds intermittent single-bit corruption with the given per-frame
    /// probability.
    pub fn corrupt(self, link: LinkId, probability: f64, window: ActivationWindow) -> FaultPlan {
        self.with(
            link,
            FaultKind::Corrupt {
                probability,
                window,
            },
        )
    }

    /// Adds a deterministic extra-latency fault over `window`.
    pub fn delay(self, link: LinkId, extra: SimDuration, window: ActivationWindow) -> FaultPlan {
        self.with(link, FaultKind::Delay { extra, window })
    }

    /// Adds probabilistic reordering (frames held back `hold`) over
    /// `window`.
    pub fn reorder(
        self,
        link: LinkId,
        probability: f64,
        hold: SimDuration,
        window: ActivationWindow,
    ) -> FaultPlan {
        self.with(
            link,
            FaultKind::Reorder {
                probability,
                hold,
                window,
            },
        )
    }

    /// Adds a fault on the `from → to` direction of a control channel.
    pub fn control_fault(
        mut self,
        from: crate::id::NodeId,
        to: crate::id::NodeId,
        kind: FaultKind,
    ) -> FaultPlan {
        self.control_faults
            .push(ControlFaultSpec { from, to, kind });
        self
    }

    /// Adds the same fault on *both* directions of a control channel — the
    /// natural shape for partitions and rolling restarts.
    pub fn control_fault_bidir(
        self,
        a: crate::id::NodeId,
        b: crate::id::NodeId,
        kind: FaultKind,
    ) -> FaultPlan {
        self.control_fault(a, b, kind.clone())
            .control_fault(b, a, kind)
    }

    /// `true` when the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.control_faults.is_empty()
    }
}
