//! The traced run: every layer measured from outside the simulator.
//!
//! The benchmark steps a single-shard [`Simulation`] with [`Simulation::step`]
//! and times each step; every node's handler is swapped (through
//! [`dlte_net::network::Network::handler_mut`]) for [`Timed`], which times
//! `on_packet`/`on_timer`/`on_start`/`on_restart` and classifies the call
//! by handler type and, on dLTE access points, by payload (X2 message) or
//! timer tag (X2 tick). Calls become child spans of their step; a step's
//! self time is engine plus fabric work. Spans are folded into per-layer
//! aggregates as they close, and every [`SAMPLE_EVERY`]th step's spans are
//! kept to be written out when the run ends, so the trace costs constant
//! memory.

use crate::workload::Arm;
use dlte::ap::DlteApNode;
use dlte_epc::local_core::KeyDirectoryNode;
use dlte_epc::{EnbNode, HssNode, LocalCoreNode, MmeNode, PgwNode, SgwNode, UeNode};
use dlte_net::handlers::EchoServer;
use dlte_net::{NetEvent, NodeCtx, NodeHandler, Packet, ShardedSim};
use dlte_x2::X2Msg;
use std::any::Any;
use std::cell::RefCell;
use std::ops::Range;
use std::time::Instant;

/// Timer tags the X2 agent owns on an access point (`DlteApNode` documents
/// the split: fetch timeouts from 8,000,000, the X2 tick below that, the
/// local core's processor from 0).
const X2_TAGS: Range<u64> = 7_000_000..8_000_000;

/// Keep the spans of one step in this many.
pub const SAMPLE_EVERY: u64 = 1024;

/// Sampled spans reserved before a traced run. The longest workload keeps
/// about 6,000 steps' spans plus its control steps (the `Start` step has
/// one child per handler).
const SAMPLED_CAPACITY: usize = 1 << 16;

/// Calls timed to measure the wrapper's own cost.
const CALIBRATION_CALLS: u64 = 1_000_000;

/// Largest share of the traced wall time allowed outside step timing
/// (the stepping loop's `peek_time`, clock reads and span folding). It reads
/// about 0.16 on all four workloads; above this bound the per-layer self
/// times no longer account for the run.
pub const MAX_UNATTRIBUTED: f64 = 0.35;

/// Who did the work of a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Ue,
    Enb,
    Mme,
    Sgw,
    Pgw,
    Hss,
    LocalCore,
    KeyDir,
    X2Msg,
    X2Tick,
    X2Setup,
    Ott,
    Other,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Ue => "epc.ue",
            Layer::Enb => "epc.enb",
            Layer::Mme => "epc.mme",
            Layer::Sgw => "epc.sgw",
            Layer::Pgw => "epc.pgw",
            Layer::Hss => "epc.hss",
            Layer::LocalCore => "epc.local_core",
            Layer::KeyDir => "epc.key_dir",
            Layer::X2Msg => "x2.msg",
            Layer::X2Tick => "x2.tick",
            Layer::X2Setup => "x2.setup",
            Layer::Ott => "app.ott",
            Layer::Other => "app.other",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Which callback a handler span times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    Packet,
    Timer,
    /// `on_start` / `on_restart`.
    Lifecycle,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    Step,
    Handler(Layer, Call),
}

/// One timed interval. Handler spans name their step as parent; the spans
/// of one event share that step's id.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub kind: SpanKind,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn name(&self) -> &'static str {
        match self.kind {
            SpanKind::Step => "sim.step",
            SpanKind::Handler(l, _) => l.name(),
        }
    }
}

/// A span's duration minus the part its direct children cover.
pub fn self_ns(span: &Span, spans: &[Span]) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(Span::dur)
        .sum();
    span.dur().saturating_sub(children)
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerAgg {
    pub calls: u64,
    pub self_ns: u64,
}

/// Per-layer aggregates of every step of a traced run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Agg {
    pub layers: [LayerAgg; 13],
    pub steps: u64,
    /// Steps that dispatched a control event (`Start`, `Fault`): they do
    /// not count in `events_dispatched`.
    pub control_steps: u64,
    /// Handler calls made inside control steps (`on_start`, `on_restart`).
    pub control_calls: u64,
    /// Non-control steps that invoked exactly one handler callback.
    pub handler_steps: u64,
    /// Non-control steps that invoked none: forwarding hops, link
    /// departures, drops.
    pub hop_steps: u64,
    /// Non-control steps that invoked more than one callback (must be 0).
    pub multi_call_steps: u64,
    /// `on_packet` calls, to be checked against the fabric's `absorbed`.
    pub packet_calls: u64,
    /// Σ step durations.
    pub step_ns: u64,
    /// Σ step self times: step time outside handler callbacks.
    pub step_self_ns: u64,
    /// Σ durations of hop steps.
    pub hop_ns: u64,
    pub queue_peak: usize,
}

impl Agg {
    /// Fold one closed step and its handler spans into the aggregates.
    pub fn fold_step(&mut self, step: &Span, children: &[Span], control: bool) {
        self.steps += 1;
        self.step_ns += step.dur();
        self.step_self_ns += self_ns(step, children);
        for c in children {
            if let SpanKind::Handler(layer, call) = c.kind {
                let l = &mut self.layers[layer.index()];
                l.calls += 1;
                l.self_ns += self_ns(c, children);
                self.packet_calls += (call == Call::Packet) as u64;
            }
        }
        if control {
            self.control_steps += 1;
            self.control_calls += children.len() as u64;
            return;
        }
        match children.len() {
            0 => {
                self.hop_steps += 1;
                self.hop_ns += step.dur();
            }
            1 => self.handler_steps += 1,
            _ => self.multi_call_steps += 1,
        }
    }

    pub fn layer(&self, l: Layer) -> LayerAgg {
        self.layers[l.index()]
    }

    pub fn handler_calls(&self) -> u64 {
        self.layers.iter().map(|l| l.calls).sum()
    }

    pub fn handler_self_ns(&self) -> u64 {
        self.layers.iter().map(|l| l.self_ns).sum()
    }

    /// The layer-count closure. Two counts are checked against figures the
    /// simulator keeps on its own: every `on_packet` is an arrival the
    /// fabric counted as `absorbed`, and the handler-free steps are exactly
    /// the simulator's handler-free events (see [`handler_free_events`]).
    /// A handler left unwrapped, or a handler call that escaped its span,
    /// breaks one of them. With those in place the sum the closure is named
    /// for — handler calls outside control steps plus hop steps equal
    /// `events_dispatched` — is an identity kept as a sanity check.
    pub fn check_closure(&self, events: u64, absorbed: u64, handler_free: u64) -> Vec<String> {
        let mut errs = Vec::new();
        if self.multi_call_steps != 0 {
            errs.push(format!(
                "{} non-control steps invoked more than one handler",
                self.multi_call_steps
            ));
        }
        if self.packet_calls != absorbed {
            errs.push(format!(
                "on_packet calls {} != fabric absorbed {absorbed}",
                self.packet_calls
            ));
        }
        if self.hop_steps != handler_free {
            errs.push(format!(
                "hop steps {} != handler-free events {handler_free} \
                 (fabric arrivals not absorbed + link departures)",
                self.hop_steps
            ));
        }
        let counted = self.handler_calls() - self.control_calls + self.hop_steps;
        if counted != events {
            errs.push(format!(
                "handler calls {} - control-step calls {} + hop steps {} = {counted} != events {events}",
                self.handler_calls(),
                self.control_calls,
                self.hop_steps
            ));
        }
        errs
    }
}

/// Non-control events that invoke no handler, counted from the simulator's
/// own state after a run: `PacketArrive`s the fabric did not hand to a
/// handler (relayed, delivered plain, dropped node-down), plus
/// `LinkDeparted`s dispatched (one is scheduled per accepted transmission;
/// those still pending are in the queue). The third handler-free kind, a
/// timer that a crashed node drops or a paused node defers, does not occur:
/// no workload crashes or pauses a node.
pub fn handler_free_events(arms: &[Arm]) -> u64 {
    let mut n = 0;
    for arm in arms {
        for sim in arm.sim.shards() {
            let f = &sim.world().core.fabric;
            let pending_departures = sim
                .queue()
                .iter_pending()
                .filter(|e| matches!(e, NetEvent::LinkDeparted { .. }))
                .count() as u64;
            n += f.arrivals - f.absorbed + f.accepted - pending_departures;
        }
    }
    n
}

struct Tracer {
    origin: Instant,
    step_id: u64,
    next_id: u64,
    children: Vec<Span>,
    agg: Agg,
    sampled: Vec<Span>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

fn ns_since(origin: Instant, t: Instant) -> u64 {
    t.duration_since(origin).as_nanos() as u64
}

fn record_call(layer: Layer, call: Call, t0: Instant, t1: Instant) {
    TRACER.with(|cell| {
        if let Some(t) = cell.borrow_mut().as_mut() {
            let span = Span {
                id: t.next_id,
                parent: Some(t.step_id),
                kind: SpanKind::Handler(layer, call),
                start_ns: ns_since(t.origin, t0),
                end_ns: ns_since(t.origin, t1),
            };
            t.next_id += 1;
            t.children.push(span);
        }
    });
}

/// How a wrapped handler's calls are classified.
#[derive(Clone, Copy)]
enum Kind {
    Fixed(Layer),
    /// A dLTE access point: X2 messages and ticks go to the X2 layer,
    /// everything else to its local core.
    Ap,
}

impl Kind {
    fn of(h: &dyn NodeHandler) -> Kind {
        let a: &dyn Any = h;
        if a.is::<DlteApNode>() {
            return Kind::Ap;
        }
        Kind::Fixed(if a.is::<UeNode>() {
            Layer::Ue
        } else if a.is::<EnbNode>() {
            Layer::Enb
        } else if a.is::<MmeNode>() {
            Layer::Mme
        } else if a.is::<SgwNode>() {
            Layer::Sgw
        } else if a.is::<PgwNode>() {
            Layer::Pgw
        } else if a.is::<HssNode>() {
            Layer::Hss
        } else if a.is::<LocalCoreNode>() {
            Layer::LocalCore
        } else if a.is::<KeyDirectoryNode>() {
            Layer::KeyDir
        } else if a.is::<EchoServer>() {
            Layer::Ott
        } else {
            Layer::Other
        })
    }
}

/// The benchmark-side timing wrapper around one node's handler.
struct Timed {
    inner: Box<dyn NodeHandler>,
    kind: Kind,
}

impl Timed {
    /// The layer of a call on a non-AP handler, or of an AP call that is
    /// `ap_layer` work.
    fn layer(&self, ap_layer: Layer) -> Layer {
        match self.kind {
            Kind::Fixed(l) => l,
            Kind::Ap => ap_layer,
        }
    }
}

impl NodeHandler for Timed {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        let layer = match self.kind {
            Kind::Fixed(l) => l,
            Kind::Ap if packet.payload.as_control::<X2Msg>().is_some() => Layer::X2Msg,
            Kind::Ap => Layer::LocalCore,
        };
        let t0 = Instant::now();
        self.inner.on_packet(ctx, packet);
        record_call(layer, Call::Packet, t0, Instant::now());
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        let layer = self.layer(if X2_TAGS.contains(&tag) {
            Layer::X2Tick
        } else {
            Layer::LocalCore
        });
        let t0 = Instant::now();
        self.inner.on_timer(ctx, tag);
        record_call(layer, Call::Timer, t0, Instant::now());
    }

    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        // An access point's start is its X2 setup storm.
        let layer = self.layer(Layer::X2Setup);
        let t0 = Instant::now();
        self.inner.on_start(ctx);
        record_call(layer, Call::Lifecycle, t0, Instant::now());
    }

    fn on_crash(&mut self) {
        self.inner.on_crash();
    }

    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        let layer = self.layer(Layer::X2Setup);
        let t0 = Instant::now();
        self.inner.on_restart(ctx);
        record_call(layer, Call::Lifecycle, t0, Instant::now());
    }
}

/// Placeholder while a handler is moved in or out of its wrapper.
struct Vacant;

impl NodeHandler for Vacant {
    fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _packet: Packet) {}
}

fn rewrap(arms: &mut [Arm], f: impl Fn(Box<dyn NodeHandler>) -> Box<dyn NodeHandler>) {
    for arm in arms {
        let net = arm.sim.world_mut();
        for node in 0..net.core.nodes.len() {
            if let Some(slot) = net.handler_mut(node) {
                let h = std::mem::replace(slot, Box::new(Vacant));
                *slot = f(h);
            }
        }
    }
}

/// Swap every handler of every arm for its timing wrapper. Arms must be
/// single-shard (`ShardedSim::Single`).
pub fn wrap(arms: &mut [Arm]) {
    rewrap(arms, |h| {
        let kind = Kind::of(h.as_ref());
        Box::new(Timed { inner: h, kind })
    });
}

/// Put the original handlers back, so outputs can be read as usual.
pub fn unwrap(arms: &mut [Arm]) {
    rewrap(arms, |h| {
        let h: Box<dyn Any> = h;
        h.downcast::<Timed>()
            .expect("every handler was wrapped")
            .inner
    });
}

/// What a traced run measured.
pub struct Traced {
    pub agg: Agg,
    /// Wall time of the stepping loops (tracing on).
    pub wall_ns: u64,
    pub sampled: Vec<Span>,
}

impl Traced {
    /// Share of the traced wall time not covered by step spans.
    pub fn unattributed_share(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.wall_ns.saturating_sub(self.agg.step_ns) as f64 / self.wall_ns as f64
    }
}

fn install_tracer(children: usize, sampled: usize) {
    let tracer = Tracer {
        origin: Instant::now(),
        step_id: 0,
        next_id: 0,
        children: Vec::with_capacity(children),
        agg: Agg::default(),
        sampled: Vec::with_capacity(sampled),
    };
    TRACER.with(|c| *c.borrow_mut() = Some(tracer));
}

/// Run every wrapped arm to its horizon one timed step at a time. The
/// tracer's buffers are sized up front (a control step's children are at
/// most one per node; the sampled spans of the longest workload fit
/// [`SAMPLED_CAPACITY`]), so the run's allocation count is the simulator's.
pub fn run(arms: &mut [Arm]) -> Traced {
    let nodes = arms
        .iter()
        .map(|a| a.sim.world().core.nodes.len())
        .max()
        .unwrap_or(0);
    install_tracer(nodes + 1, SAMPLED_CAPACITY);
    let mut wall_ns = 0;
    for arm in arms.iter_mut() {
        let ShardedSim::Single(sim) = &mut arm.sim else {
            panic!("traced runs are single-shard");
        };
        let start = Instant::now();
        loop {
            match sim.queue_mut().peek_time() {
                Some(t) if t <= arm.horizon => {}
                _ => break,
            }
            let before = sim.events_dispatched();
            TRACER.with(|c| {
                let mut c = c.borrow_mut();
                let t = c.as_mut().expect("tracer installed");
                t.step_id = t.next_id;
                t.next_id += 1;
                t.children.clear();
            });
            let t0 = Instant::now();
            sim.step();
            let t1 = Instant::now();
            let control = sim.events_dispatched() == before;
            let pending = sim.queue().pending();
            TRACER.with(|c| {
                let mut c = c.borrow_mut();
                let t = c.as_mut().expect("tracer installed");
                let step = Span {
                    id: t.step_id,
                    parent: None,
                    kind: SpanKind::Step,
                    start_ns: ns_since(t.origin, t0),
                    end_ns: ns_since(t.origin, t1),
                };
                t.agg.fold_step(&step, &t.children, control);
                t.agg.queue_peak = t.agg.queue_peak.max(pending);
                if step.id.is_multiple_of(SAMPLE_EVERY) || control {
                    t.sampled.push(step);
                    t.sampled.extend_from_slice(&t.children);
                }
            });
        }
        wall_ns += start.elapsed().as_nanos() as u64;
    }
    let t = TRACER
        .with(|c| c.borrow_mut().take())
        .expect("tracer installed");
    Traced {
        agg: t.agg,
        wall_ns,
        sampled: t.sampled,
    }
}

/// Host ns the wrapper adds to a step for each handler call, outside the
/// call's own span: the closing clock read and [`record_call`]. Measured on
/// a tracer of its own, as the mean of [`CALIBRATION_CALLS`] calls.
pub fn call_overhead_ns() -> f64 {
    const CLEAR_EVERY: u64 = 64;
    install_tracer(CLEAR_EVERY as usize, 0);
    let t = Instant::now();
    for i in 0..CALIBRATION_CALLS {
        let now = Instant::now();
        record_call(Layer::Other, Call::Timer, now, now);
        if i % CLEAR_EVERY == CLEAR_EVERY - 1 {
            TRACER.with(|c| c.borrow_mut().as_mut().expect("installed").children.clear());
        }
    }
    let ns = t.elapsed().as_nanos() as f64 / CALIBRATION_CALLS as f64;
    TRACER.with(|c| c.borrow_mut().take());
    ns
}

/// The sampled spans as JSON lines: name, start, end, id, parent step.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let call = match s.kind {
            SpanKind::Step => "step",
            SpanKind::Handler(_, Call::Packet) => "packet",
            SpanKind::Handler(_, Call::Timer) => "timer",
            SpanKind::Handler(_, Call::Lifecycle) => "lifecycle",
        };
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"call\":\"{call}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id,
            s.name(),
            s.start_ns,
            s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, kind: SpanKind, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            kind,
            start_ns,
            end_ns,
        }
    }

    const UE_PKT: SpanKind = SpanKind::Handler(Layer::Ue, Call::Packet);

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(0, None, SpanKind::Step, 100, 1_100),
            span(1, Some(0), UE_PKT, 200, 600),
            span(2, Some(0), UE_PKT, 700, 800),
            // A grandchild: covered by span 1, not subtracted from the step.
            span(3, Some(1), UE_PKT, 300, 400),
        ];
        assert_eq!(self_ns(&spans[0], &spans), 1_000 - 400 - 100);
        assert_eq!(self_ns(&spans[1], &spans), 400 - 100);
        assert_eq!(self_ns(&spans[3], &spans), 100);
        // A clock that stepped backwards never yields a negative self time.
        let skewed = [span(0, None, SpanKind::Step, 10, 5)];
        assert_eq!(self_ns(&skewed[0], &skewed), 0);
    }

    #[test]
    fn fold_classifies_steps_and_closes() {
        let mut agg = Agg::default();
        // Control step (Start): two on_start calls.
        let start = span(0, None, SpanKind::Step, 0, 100);
        let lifecycle = SpanKind::Handler(Layer::X2Setup, Call::Lifecycle);
        agg.fold_step(
            &start,
            &[
                span(1, Some(0), lifecycle, 10, 40),
                span(2, Some(0), lifecycle, 50, 90),
            ],
            true,
        );
        // A handler step and two hop steps.
        agg.fold_step(
            &span(3, None, SpanKind::Step, 100, 300),
            &[span(4, Some(3), UE_PKT, 120, 250)],
            false,
        );
        agg.fold_step(&span(5, None, SpanKind::Step, 300, 340), &[], false);
        agg.fold_step(&span(6, None, SpanKind::Step, 340, 360), &[], false);
        assert_eq!(agg.steps, 4);
        assert_eq!((agg.control_steps, agg.control_calls), (1, 2));
        assert_eq!((agg.handler_steps, agg.hop_steps), (1, 2));
        assert_eq!(agg.hop_ns, 60);
        assert_eq!(
            agg.layer(Layer::Ue),
            LayerAgg {
                calls: 1,
                self_ns: 130
            }
        );
        assert_eq!(
            agg.layer(Layer::X2Setup),
            LayerAgg {
                calls: 2,
                self_ns: 70
            }
        );
        // Self times partition the step time exactly.
        assert_eq!(agg.step_self_ns + agg.handler_self_ns(), agg.step_ns);
        assert!(agg.check_closure(3, 1, 2).is_empty());
        assert_eq!(agg.check_closure(4, 1, 2).len(), 1);
        assert_eq!(agg.check_closure(3, 2, 2).len(), 1);
        // A timer on an unwrapped handler looks like a hop step: the step
        // sum still closes, the simulator's handler-free count does not.
        agg.fold_step(&span(7, None, SpanKind::Step, 360, 400), &[], false);
        let errs = agg.check_closure(4, 1, 2);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].starts_with("hop steps 3 != handler-free events 2"));
    }
}
