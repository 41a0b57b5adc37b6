//! The epoch clock against poisoned stamps: a monotone day in which at
//! most 1 % of the events carry a lone corrupted stamp (a flipped byte,
//! another day, `u64::MAX`) closes the epochs the clean day closes.

use dnsnoise_core::{DailyPipeline, Miner, MinerConfig};
use dnsnoise_dns::{Timestamp, STAMP_NEIGHBORS};
use dnsnoise_stream::{StreamConfig, StreamMiner};
use dnsnoise_workload::{QueryEvent, Scenario, ScenarioConfig};
use proptest::prelude::*;
use proptest::test_runner::TestCaseResult;

const EPOCH_SECS: u64 = 3600;

struct Day {
    miner: Miner,
    events: Vec<QueryEvent>,
    /// `(epoch, events replayed)` of every close of the clean day.
    closes: Vec<(u64, u64)>,
    /// Indices of the events that open a new epoch in the clean day.
    boundaries: Vec<usize>,
}

fn day() -> Day {
    let scenario = Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(0.05), 29);
    let mut pipeline = DailyPipeline::new(MinerConfig::default());
    let _ = pipeline.run_day(&scenario, 0);
    let miner = pipeline.into_miner().expect("day 0 trains the model");
    let events = scenario.generate_day(1).events;
    let epoch = |i: usize| events[i].time.second_of_day() / EPOCH_SECS;
    let boundaries = (1..events.len()).filter(|&i| epoch(i) != epoch(i - 1)).collect();
    let closes = closes(&miner, &events);
    Day { miner, events, closes, boundaries }
}

fn closes(miner: &Miner, events: &[QueryEvent]) -> Vec<(u64, u64)> {
    let mut stream = StreamMiner::new(StreamConfig { epoch_secs: EPOCH_SECS }, miner);
    for event in events {
        stream.push(event);
    }
    let (report, _) = stream.finish();
    report.epochs.iter().map(|e| (e.epoch, e.events)).collect()
}

thread_local! {
    static DAY: Day = day();
}

/// A corrupted stamp of one of four kinds for the clean stamp `clean`.
fn poison(clean: u64, raw: u64, kind: u8) -> u64 {
    // 1.8 to 14.5 hours, the span the corrupted captures show.
    let hours = 6_500 + raw % 46_000;
    match kind {
        0 => u64::MAX,
        1 => clean.saturating_sub(hours),
        2 => clean + hours,
        // Anywhere from the day before to the day after.
        _ => (clean / 86_400 * 86_400).saturating_sub(86_400) + raw % (3 * 86_400),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn lone_poisoned_stamps_close_the_clean_epochs(
        picks in proptest::collection::vec((any::<u64>(), any::<u64>(), 0u8..4), 0..64),
    ) {
        DAY.with(|day| -> TestCaseResult {
            let n = day.events.len();
            // Lone: more than a median window's half from each other, and
            // never the first event, which names the day.
            let mut at: Vec<usize> = Vec::new();
            let mut events = day.events.clone();
            for &(position, raw, kind) in &picks {
                let i = 1 + (position % (n as u64 - 1)) as usize;
                if at.len() < n / 100 && at.iter().all(|&j| i.abs_diff(j) > STAMP_NEIGHBORS) {
                    at.push(i);
                    let stamp = poison(events[i].time.as_secs(), raw, kind);
                    events[i].time = Timestamp::from_secs(stamp);
                }
            }
            let got = closes(&day.miner, &events);

            // Every clean epoch closes, each within a window's half of
            // its clean count.
            let epochs = |closes: &[(u64, u64)]| closes.iter().map(|c| c.0).collect::<Vec<_>>();
            prop_assert_eq!(epochs(&got), epochs(&day.closes));
            for (ours, clean) in got.iter().zip(&day.closes) {
                prop_assert!(ours.1.abs_diff(clean.1) <= STAMP_NEIGHBORS as u64, "{ours:?} {clean:?}");
            }
            // A poisoned stamp whose window holds no boundary moves no
            // close by a single event.
            let clear = at.iter().all(|&i| {
                day.boundaries.iter().all(|&b| i.abs_diff(b) > STAMP_NEIGHBORS)
            });
            if clear {
                prop_assert_eq!(&got, &day.closes);
            }
            Ok(())
        })?;
    }
}
