//! Property tests for the streaming aggregator: for a fixed event
//! stream the windows are bit-deterministic across replays, and window
//! contents are stable under reordering of the stream (windows are
//! set-like over `(t_us, value)` observations, so arrival order never
//! matters for a window).

use lb_telemetry::stream::{StreamAggregator, WindowSpec};
use lb_telemetry::Collector;
use proptest::prelude::*;

const EVENT_NAMES: [&str; 2] = ["watch.gap", "watch.goodput"];

/// One generated observation. Values are quarter-integers so sums are
/// exact in f64 regardless of addition order — letting the reorder
/// property assert bitwise equality instead of tolerances.
#[derive(Debug, Clone, Copy)]
struct Obs {
    name: &'static str,
    t_us: u64,
    value: f64,
}

fn any_obs() -> impl Strategy<Value = Obs> {
    (0usize..EVENT_NAMES.len(), 0u64..50_000, 0u32..4_000).prop_map(|(n, t, q)| Obs {
        name: EVENT_NAMES[n],
        t_us: t,
        value: f64::from(q) * 0.25,
    })
}

/// Windows 2k and 2k + 1 (8 ms and 32 ms) observe `EVENT_NAMES[k]`.
fn build() -> StreamAggregator {
    let mut agg = StreamAggregator::new();
    for name in EVENT_NAMES {
        agg = agg
            .window(WindowSpec::new(name, "v", 8_000))
            .window(WindowSpec::new(name, "v", 32_000));
    }
    agg
}

fn feed(agg: &StreamAggregator, stream: &[Obs]) {
    for o in stream {
        agg.emit(o.name, &[("t_us", o.t_us.into()), ("v", o.value.into())]);
    }
}

/// Full bit-level fingerprint of the aggregator's queryable state.
fn fingerprint(agg: &StreamAggregator) -> Vec<(u64, u64, u64)> {
    let mut out = Vec::new();
    for (k, name) in EVENT_NAMES.iter().enumerate() {
        for index in [2 * k, 2 * k + 1] {
            let s = agg.window_stats(index).unwrap();
            out.push((s.count, s.sum.to_bits(), agg.watermark_us()));
        }
        out.push((agg.count(name), agg.late_dropped(), 0));
    }
    out
}

/// Deterministic Fisher–Yates driven by splitmix64 — proptest picks the
/// seed, the shuffle itself is reproducible.
fn shuffle(stream: &mut [Obs], mut seed: u64) {
    let mut next = || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..stream.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        stream.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn replaying_the_same_stream_is_bit_deterministic(
        stream in prop::collection::vec(any_obs(), 0..64),
    ) {
        let (a, b) = (build(), build());
        feed(&a, &stream);
        feed(&b, &stream);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn window_contents_are_stable_under_reordering(
        stream in prop::collection::vec(any_obs(), 0..64),
        seed in 0u64..u64::MAX,
    ) {
        let a = build();
        feed(&a, &stream);

        let mut reordered = stream.clone();
        shuffle(&mut reordered, seed);
        let b = build();
        feed(&b, &reordered);

        // Windows evaluate at the final watermark, which depends only
        // on the set of observations — whether a stale observation was
        // dropped on arrival or evicted later, the surviving window
        // content is identical.
        prop_assert_eq!(a.watermark_us(), b.watermark_us());
        for (k, name) in EVENT_NAMES.iter().enumerate() {
            prop_assert_eq!(a.count(name), b.count(name));
            for index in [2 * k, 2 * k + 1] {
                let sa = a.window_stats(index).unwrap();
                let sb = b.window_stats(index).unwrap();
                prop_assert_eq!(sa.count, sb.count, "{} window {}", name, index);
                prop_assert_eq!(sa.sum.to_bits(), sb.sum.to_bits());
            }
        }
    }
}
