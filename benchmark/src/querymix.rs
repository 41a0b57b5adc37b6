//! The `pdns-query-mix` workload: the store alone, in-process (it has no
//! query CLI), driven by the seeded generator and checked op by op
//! against the oracle.

use dnsnoise::ingest::CaptureFormat;

use crate::child::own_peak_rss_kb;
use crate::layers::{mem_observe_s, probe_day, set_store_metrics};
use crate::run::{measure, Outcome, RunOptions};
use crate::setup::{prepare_day, set_setup_metrics, DaySpec};
use crate::spec::{Metrics, PDNS_QUERY_MIX};
use crate::stats::median;
use crate::storebench::{run_plan, Expected, StoreRun};
use crate::storegen::StoreWorkload;
use crate::trace::Tracer;

/// Scan sweeps over the plan's zones per rep.
const SWEEPS: usize = 4;
/// Scale of the day the non-store layers are probed on in a traced run.
/// This workload never replays a day; the probe keeps every per-layer
/// metric defined on every workload, and its numbers are the no-change
/// control for a store-only change.
const PROBE_DAY_SCALE: f64 = 0.05;

/// The paper-shaped store mix, `scale` times its full size of 600k
/// distinct records: 60 % one-shot disposable-style names under 40 vendor
/// zones against 40 % names under stable zones, 30 % extra duplicate
/// observes, 2M Zipf(1.0) gets of which 10 % miss, and a 400k-op 80/20
/// get/put interleave.
fn store_workload(seed: u64, scale: f64) -> StoreWorkload {
    let sized = |full: f64| ((full * scale).round() as usize).max(1);
    StoreWorkload::builder(seed)
        .records(sized(600_000.0), 0.3)
        .key_distribution(0.6, 40, sized(2_000.0))
        .gets(sized(2_000_000.0), 1.0, 0.1)
        .action_weights(sized(400_000.0), 80, 20)
}

pub fn run(options: &RunOptions) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(PDNS_QUERY_MIX);
    let mut metrics = Metrics::default();
    let store_dir = options.work.join("store");
    let measured = measure(
        options,
        &mut tracer,
        |t| {
            let plan = t
                .span("storegen.build", |_| store_workload(options.seed, options.scale).build())
                .0?;
            let expected = t.span("storegen.oracle", |_| Expected::of(&plan)).0;
            Ok((plan, expected))
        },
        |(plan, expected), t| {
            let run = run_plan(plan, expected, &store_dir, SWEEPS, t)?;
            let busy_s = run.busy_s();
            Ok((run, busy_s))
        },
    )?;
    let ((plan, expected), reps, host_speed) =
        (&measured.inputs, &measured.reps, measured.host_speed);
    let peak_rss_mb = own_peak_rss_kb() as f64 / 1024.0;
    let mut samples = Vec::new();
    measured.report(&mut metrics, &mut samples);

    let mut problems = Vec::new();
    let first = &reps[0];
    for (i, rep) in reps.iter().enumerate() {
        if rep.wrong != 0 {
            problems.push(format!("rep {i}: {} store answers disagree with the oracle", rep.wrong));
        }
        let counts = |r: &StoreRun| {
            (r.ops(), r.distinct, r.durable_bytes, r.flushes, r.compactions, r.runs, r.learned_runs)
        };
        if counts(rep) != counts(first) {
            problems.push(format!("rep {i}: op, record, byte or flush counts differ from rep 0"));
        }
    }
    let ops = first.ops();
    let attempted = ops * reps.len() as u64;
    let failed: u64 = reps.iter().map(|r| r.wrong.min(ops)).sum();
    let right_share = (attempted - failed) as f64 / attempted as f64;

    let ops_per_s: Vec<f64> =
        reps.iter().map(|r| r.ops() as f64 / (r.busy_s() * host_speed)).collect();
    let busy: Vec<f64> = reps.iter().map(StoreRun::busy_s).collect();
    metrics.set("events_per_s", median(&ops_per_s));
    metrics.set("peak_rss_mb", peak_rss_mb);
    metrics.set("durable_bytes_per_rr", first.durable_bytes as f64 / first.distinct.max(1) as f64);
    metrics.set("accounted_share", right_share);

    if options.trace {
        let probe_dir = options.work.join("probe-day");
        std::fs::create_dir_all(&probe_dir)
            .map_err(|e| format!("cannot create {}: {e}", probe_dir.display()))?;
        let day = DaySpec {
            epoch: 1.0,
            scale: PROBE_DAY_SCALE,
            format: CaptureFormat::Pcap,
            corrupt: None,
        };
        let (reference, _) = tracer.span("probe_day", |t| {
            let inputs = prepare_day(day, options.seed, &probe_dir, t)?;
            probe_day(&inputs, None, true, &probe_dir, t, &mut metrics)
        });
        problems.extend(reference?.problems.into_iter().map(|p| format!("probe day: {p}")));
        set_setup_metrics(&tracer, &mut metrics);

        // The store numbers come from this workload's own plan, traced.
        let mem_s = mem_observe_s(plan, &mut tracer);
        let (traced, _) = tracer.span("store", |t| run_plan(plan, expected, &store_dir, SWEEPS, t));
        let traced = traced?;
        if traced.wrong != 0 {
            problems.push(format!(
                "traced pass: {} store answers disagree with the oracle",
                traced.wrong
            ));
        }
        set_store_metrics(&mut metrics, &traced, mem_s);
        metrics.set_residual(median(&busy), traced.busy_s());
    }

    let phase = |f: fn(&StoreRun) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    samples.extend(
        [
            ("events_per_s", ops_per_s),
            ("raw_busy_s", busy),
            ("store_put_per_s", phase(|r| r.observes as f64 / (r.observe_s + r.optimize_s))),
            (
                "store_get_per_s",
                phase(|r| (r.hit_gets + r.miss_gets) as f64 / (r.hit_s + r.miss_s)),
            ),
            ("store_scan_entries_per_s", phase(|r| r.scan_entries as f64 / r.scan_s)),
            ("store_mixed_ops_per_s", phase(|r| r.mixed_ops as f64 / r.mixed_s)),
            ("store_open_s", phase(|r| r.open_s)),
        ]
        .map(|(name, values)| (name.to_owned(), values)),
    );
    Ok(Outcome { metrics, attempted, failed, problems, notes: Vec::new(), samples, tracer })
}
