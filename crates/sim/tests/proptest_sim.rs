//! Property-based tests for the simulation engine's core invariants.

use dlte_sim::stats::{jain_index, Samples, Welford};
use dlte_sim::{EventQueue, SimDuration, SimTime, Simulation, World};
use proptest::prelude::*;

/// A world that just records firing times.
struct Sink {
    fired: Vec<SimTime>,
}

impl World for Sink {
    type Event = ();
    fn handle(&mut self, now: SimTime, _: (), _q: &mut EventQueue<()>) {
        self.fired.push(now);
    }
}

/// One phase of the slab-queue equivalence test: schedule a batch, cancel
/// some keys (live, already-fired, or already-canceled — all must be safe),
/// then advance the clock.
#[derive(Clone, Debug)]
struct Phase {
    /// Schedule offsets from the phase base, in nanoseconds.
    schedule: Vec<u64>,
    /// Indices (mod keys-so-far) of keys to cancel after scheduling.
    cancel: Vec<usize>,
    /// How far past the base this phase's run_until horizon reaches.
    advance: u64,
    /// Attempt a slab reclaim after this phase's run (a no-op unless the
    /// queue happens to be fully drained — both paths must be transparent).
    reclaim: bool,
}

fn arb_phase() -> impl Strategy<Value = Phase> {
    (
        prop::collection::vec(0u64..50_000, 0..20),
        prop::collection::vec(0usize..1000, 0..10),
        1u64..60_000,
        any::<bool>(),
    )
        .prop_map(|(schedule, cancel, advance, reclaim)| Phase {
            schedule,
            cancel,
            advance,
            reclaim,
        })
}

/// Reference model of one scheduled event.
#[derive(Clone, Debug)]
struct ModelEntry {
    at: SimTime,
    id: u32,
    canceled: bool,
    fired: bool,
}

/// World that records (time, id) of every dispatched event.
struct Recorder {
    fired: Vec<(SimTime, u32)>,
}

impl World for Recorder {
    type Event = u32;
    fn handle(&mut self, now: SimTime, id: u32, _q: &mut EventQueue<u32>) {
        self.fired.push((now, id));
    }
}

proptest! {
    /// The slab-indexed queue agrees exactly — dispatch order, times, and
    /// pending counts — with a naive reference model (a flat list stably
    /// ordered by (time, schedule sequence)) across arbitrary interleavings
    /// of scheduling, cancellation, and horizon advances. Cancels may target
    /// keys that already fired or were already canceled; both must be no-ops
    /// even after the underlying slot has been reused.
    #[test]
    fn slab_queue_matches_reference_model(phases in prop::collection::vec(arb_phase(), 1..8)) {
        let mut sim = Simulation::new(Recorder { fired: vec![] });
        let mut keys = Vec::new();
        let mut model: Vec<ModelEntry> = Vec::new();
        let mut base = 0u64;
        for phase in &phases {
            for &off in &phase.schedule {
                let at = SimTime::from_nanos(base + off);
                let id = model.len() as u32;
                keys.push(sim.queue_mut().schedule_at(at, id));
                model.push(ModelEntry { at, id, canceled: false, fired: false });
            }
            for &pick in &phase.cancel {
                if keys.is_empty() {
                    continue;
                }
                let i = pick % keys.len();
                sim.queue_mut().cancel(keys[i]);
                // The model only retires live entries: canceling a fired or
                // already-canceled key must change nothing.
                let e = &mut model[i];
                if !e.fired && !e.canceled {
                    e.canceled = true;
                }
            }
            // Peek agrees with the model's next live entry before running.
            let next_live = model
                .iter()
                .filter(|e| !e.fired && !e.canceled)
                .map(|e| e.at)
                .min();
            prop_assert_eq!(sim.queue_mut().peek_time(), next_live);

            let horizon = SimTime::from_nanos(base + phase.advance);
            sim.run_until(horizon, 100_000);
            // Entries are ordered by (at, seq) and seq is insertion order,
            // so a stable in-order scan marks exactly what must have fired.
            for e in model.iter_mut() {
                if !e.canceled && !e.fired && e.at <= horizon {
                    e.fired = true;
                }
            }
            let live = model.iter().filter(|e| !e.fired && !e.canceled).count();
            prop_assert_eq!(sim.queue_mut().pending(), live, "pending after phase");
            prop_assert_eq!(sim.queue_mut().is_empty(), live == 0);
            if phase.reclaim {
                // Reclamation at a drain boundary must be invisible to
                // everything this test checks: later schedules, cancels via
                // (possibly stale) keys, and the final dispatch order.
                let before = sim.queue_mut().slot_capacity();
                sim.queue_mut().reclaim();
                if live == 0 && before >= dlte_sim::engine::RECLAIM_MIN_SLOTS {
                    prop_assert_eq!(sim.queue_mut().slot_capacity(), 0);
                }
            }
            base += phase.advance;
        }
        sim.run_to_completion(100_000);
        for e in model.iter_mut() {
            if !e.canceled {
                e.fired = true;
            }
        }
        // Exact dispatch order: the model sorted stably by time (sequence
        // breaks ties via the stable sort) must match what actually fired.
        let mut expect: Vec<(SimTime, u32)> = model
            .iter()
            .filter(|e| e.fired)
            .map(|e| (e.at, e.id))
            .collect();
        expect.sort_by_key(|&(at, _)| at);
        prop_assert_eq!(&sim.world().fired, &expect);
        prop_assert!(sim.queue_mut().is_empty());
        prop_assert_eq!(sim.queue_mut().pending(), 0);
    }

    /// Cancels that land on already-purged orphan slots are exact no-ops.
    ///
    /// The lazy-purge design leaves a canceled event's queued key behind until
    /// it surfaces; `peek_time` discards such orphans eagerly and the freed
    /// slot is then reused by the next schedule. This drives that exact
    /// sequence — cancel, purge via peek, reuse, then *re-cancel the stale
    /// key* — and checks the reused slot's new occupant is never harmed:
    /// `pending()` and the full dispatch order still match the reference
    /// model.
    #[test]
    fn cancels_on_purged_orphan_slots_are_noops(
        phases in prop::collection::vec(
            (
                prop::collection::vec(0u64..50_000, 1..12), // schedule
                prop::collection::vec(0usize..1000, 0..8),  // cancel, purge, re-cancel
                prop::collection::vec(0u64..50_000, 0..12), // reschedule into freed slots
                prop::collection::vec(0usize..1000, 0..8),  // stale cancels after reuse
                1u64..60_000,                               // advance
            ),
            1..8,
        )
    ) {
        let mut sim = Simulation::new(Recorder { fired: vec![] });
        let mut keys = Vec::new();
        let mut model: Vec<ModelEntry> = Vec::new();
        let mut base = 0u64;
        let schedule = |sim: &mut Simulation<Recorder>,
                            keys: &mut Vec<dlte_sim::engine::EventKey>,
                            model: &mut Vec<ModelEntry>,
                            at: SimTime| {
            let id = model.len() as u32;
            keys.push(sim.queue_mut().schedule_at(at, id));
            model.push(ModelEntry { at, id, canceled: false, fired: false });
        };
        let cancel = |sim: &mut Simulation<Recorder>,
                      keys: &[dlte_sim::engine::EventKey],
                      model: &mut [ModelEntry],
                      pick: usize| {
            if keys.is_empty() {
                return;
            }
            let i = pick % keys.len();
            sim.queue_mut().cancel(keys[i]);
            let e = &mut model[i];
            if !e.fired && !e.canceled {
                e.canceled = true;
            }
        };
        for (sched, cancels, resched, stale, advance) in &phases {
            for &off in sched {
                schedule(&mut sim, &mut keys, &mut model, SimTime::from_nanos(base + off));
            }
            for &pick in cancels {
                cancel(&mut sim, &keys, &mut model, pick);
            }
            // Purge: orphan keys at the heap top are discarded here, so the
            // canceled events' slots are ready for reuse with nothing but
            // the guard number protecting them.
            let next_live = model
                .iter()
                .filter(|e| !e.fired && !e.canceled)
                .map(|e| e.at)
                .min();
            prop_assert_eq!(sim.queue_mut().peek_time(), next_live);
            // Reuse the freed slots...
            for &off in resched {
                schedule(&mut sim, &mut keys, &mut model, SimTime::from_nanos(base + off));
            }
            // ...then fire cancels at arbitrary (often stale) keys, and
            // repeat every earlier cancel verbatim: both must leave the
            // slots' new occupants untouched.
            for &pick in stale {
                cancel(&mut sim, &keys, &mut model, pick);
            }
            for &pick in cancels {
                cancel(&mut sim, &keys, &mut model, pick);
            }
            let horizon = SimTime::from_nanos(base + advance);
            sim.run_until(horizon, 100_000);
            for e in model.iter_mut() {
                if !e.canceled && !e.fired && e.at <= horizon {
                    e.fired = true;
                }
            }
            let live = model.iter().filter(|e| !e.fired && !e.canceled).count();
            prop_assert_eq!(sim.queue_mut().pending(), live, "pending after phase");
            base += advance;
        }
        sim.run_to_completion(100_000);
        let mut expect: Vec<(SimTime, u32)> = model
            .iter()
            .filter(|e| !e.canceled)
            .map(|e| (e.at, e.id))
            .collect();
        expect.sort_by_key(|&(at, _)| at);
        prop_assert_eq!(&sim.world().fired, &expect);
        prop_assert!(sim.queue_mut().is_empty());
    }

    /// Events always fire in non-decreasing time order, whatever order they
    /// were scheduled in.
    #[test]
    fn events_fire_in_time_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut sim = Simulation::new(Sink { fired: vec![] });
        for &t in &times {
            sim.queue_mut().schedule_at(SimTime::from_nanos(t), ());
        }
        sim.run_to_completion(10_000);
        let fired = &sim.world().fired;
        prop_assert_eq!(fired.len(), times.len());
        for w in fired.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    /// The horizon never lets an event fire strictly after it.
    #[test]
    fn horizon_is_respected(
        times in prop::collection::vec(0u64..1_000_000, 1..100),
        horizon in 0u64..1_000_000,
    ) {
        let mut sim = Simulation::new(Sink { fired: vec![] });
        for &t in &times {
            sim.queue_mut().schedule_at(SimTime::from_nanos(t), ());
        }
        sim.run_until(SimTime::from_nanos(horizon), 10_000);
        let expected = times.iter().filter(|&&t| t <= horizon).count();
        prop_assert_eq!(sim.world().fired.len(), expected);
    }

    /// Canceled events never fire; everything else does.
    #[test]
    fn cancellation_is_exact(
        times in prop::collection::vec(0u64..100_000, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut sim = Simulation::new(Sink { fired: vec![] });
        let mut keys = vec![];
        for &t in &times {
            keys.push(sim.queue_mut().schedule_at(SimTime::from_nanos(t), ()));
        }
        let mut live = 0;
        for (i, key) in keys.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                sim.queue_mut().cancel(*key);
            } else {
                live += 1;
            }
        }
        sim.run_to_completion(10_000);
        prop_assert_eq!(sim.world().fired.len(), live);
    }

    /// SimTime round trips through seconds with sub-microsecond error.
    #[test]
    fn time_float_round_trip(s in 0.0f64..1.0e6) {
        let t = SimTime::from_secs_f64(s);
        prop_assert!((t.as_secs_f64() - s).abs() < 1e-6);
    }

    /// Duration arithmetic is consistent: (a + b) - b == a.
    #[test]
    fn duration_add_sub(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        prop_assert_eq!((da + db) - db, da);
    }

    /// Welford mean/variance match naive computation on arbitrary data.
    #[test]
    fn welford_matches_naive(xs in prop::collection::vec(-1.0e4f64..1.0e4, 1..300)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        prop_assert!((w.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((w.variance() - var).abs() < 1e-4 * (1.0 + var.abs()));
    }

    /// Jain's index is always within [1/n, 1].
    #[test]
    fn jain_bounds(xs in prop::collection::vec(0.0f64..1.0e6, 1..100)) {
        let j = jain_index(&xs);
        let n = xs.len() as f64;
        prop_assert!(j <= 1.0 + 1e-12);
        prop_assert!(j >= 1.0 / n - 1e-12);
    }

    /// Quantiles are monotone in q and bounded by min/max.
    #[test]
    fn quantiles_monotone(xs in prop::collection::vec(-1.0e5f64..1.0e5, 2..300)) {
        let mut s = Samples::new();
        for &x in &xs {
            s.push(x);
        }
        let q25 = s.quantile(0.25);
        let q50 = s.quantile(0.50);
        let q75 = s.quantile(0.75);
        prop_assert!(s.min() <= q25 && q25 <= q50 && q50 <= q75 && q75 <= s.max());
    }
}
