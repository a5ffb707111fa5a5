//! Criterion benches for the simulation substrate: event engine, RNG,
//! statistics — the loops every experiment spins millions of times.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dlte_sim::stats::{jain_index, Samples, Welford};
use dlte_sim::{EventQueue, SimDuration, SimRng, SimTime, Simulation, World};

struct Ticker {
    remaining: u64,
}

impl World for Ticker {
    type Event = ();
    fn handle(&mut self, _now: SimTime, _ev: (), queue: &mut EventQueue<()>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            queue.schedule_in(SimDuration::from_micros(10), ());
        }
    }
}

/// The classic hold model: every dispatched event schedules one successor
/// an exponentially distributed delay later, so the queue stays at the
/// depth it was filled to and every dispatch is one pop plus one push.
struct Hold {
    rng: SimRng,
}

/// Mean hold delay: 20 ms, between a fabric hop and a protocol timer.
const HOLD_MEAN_NS: f64 = 20e6;

impl World for Hold {
    type Event = ();
    fn handle(&mut self, _now: SimTime, _ev: (), queue: &mut EventQueue<()>) {
        let delay = self.rng.exp(HOLD_MEAN_NS) as u64;
        queue.schedule_in(SimDuration::from_nanos(delay), ());
    }
}

fn bench_event_engine(c: &mut Criterion) {
    c.bench_function("engine/dispatch_100k_events", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(Ticker { remaining: 100_000 });
            sim.queue_mut().schedule_now(());
            sim.run_to_completion(1_000_000);
            black_box(sim.events_dispatched())
        })
    });

    // `dispatch_100k_events` keeps one event pending, so it cannot see how
    // the queue scales with depth. These hold the `sim.queue_peak` depths
    // of perfbench's `ping-central` (5,400) and `ping-dlte` (85,200).
    for depth in [5_400u32, 85_200] {
        let mut sim = Simulation::new(Hold {
            rng: SimRng::new(7),
        });
        let mut rng = SimRng::new(8);
        for _ in 0..depth {
            let at = SimTime::from_nanos(rng.exp(HOLD_MEAN_NS) as u64);
            sim.queue_mut().schedule_at(at, ());
        }
        let id = BenchmarkId::new("engine/hold_100k_events_at_depth", depth);
        c.bench_with_input(id, &depth, |b, _| {
            b.iter(|| {
                sim.run_to_completion(100_000);
                black_box(sim.queue().pending())
            })
        });
    }

    c.bench_function("engine/schedule_cancel_10k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u32> = EventQueue::new();
            let keys: Vec<_> = (0..10_000)
                .map(|i| q.schedule_at(SimTime::from_micros(i), i as u32))
                .collect();
            for k in keys {
                q.cancel(k);
            }
            black_box(q.pending())
        })
    });
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("rng/normal_100k", |b| {
        let mut rng = SimRng::new(1);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..100_000 {
                acc += rng.normal(0.0, 1.0);
            }
            black_box(acc)
        })
    });
    c.bench_function("rng/fork_1k", |b| {
        let root = SimRng::new(1);
        b.iter(|| {
            for i in 0..1_000u64 {
                black_box(root.fork_idx("bench", i));
            }
        })
    });
}

fn bench_stats(c: &mut Criterion) {
    c.bench_function("stats/welford_100k", |b| {
        b.iter(|| {
            let mut w = Welford::new();
            for i in 0..100_000 {
                w.push(i as f64);
            }
            black_box(w.variance())
        })
    });
    c.bench_function("stats/quantile_10k", |b| {
        let mut rng = SimRng::new(3);
        let xs: Vec<f64> = (0..10_000).map(|_| rng.unit()).collect();
        b.iter(|| {
            let mut s = Samples::new();
            for &x in &xs {
                s.push(x);
            }
            black_box(s.p99())
        })
    });
    c.bench_function("stats/jain_1k", |b| {
        let xs: Vec<f64> = (1..=1_000).map(|i| i as f64).collect();
        b.iter(|| black_box(jain_index(&xs)))
    });
}

criterion_group!(benches, bench_event_engine, bench_rng, bench_stats);
criterion_main!(benches);
