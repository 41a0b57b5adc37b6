//! `dnsnoise simulate`: replay a day through the resolver cluster.

use dnsnoise::dns::table::PositionTable;
use dnsnoise::dns::{Ttl, SECS_PER_DAY};
use dnsnoise::resolver::{FaultPlan, FaultSpecError, MetricsRegistry, OverloadConfig};
use dnsnoise::resolver::{ResolverSim, SimConfig};
use dnsnoise::stream::RpdnsStoreSummary;
use dnsnoise::workload::{AttackPlan, AttackSpecError, DayTrace};

use crate::cli::{ensure, flag, some, to, Kind::Switch, Kind::Value, Subcommand, Table};
use crate::plumbing::{trace_events, Opts, SCENARIO, STORE, TRACE};

#[rustfmt::skip]
pub const SIMULATE: Subcommand = Subcommand {
    name: "simulate",
    summary: "replay a day through the resolver cluster",
    tables: &[&SCENARIO, &Table { title: "simulate", flags: &[
        flag(TRACE, Value("<file>"), "replay this trace (default: synthesize one)",
            |o, v| some(&mut o.trace, v)),
        flag("--members", Value("<n>"), "cluster size", |o, v| to(&mut o.members, v)).default("4"),
        flag("--capacity", Value("<n>"), "per-member cache capacity", |o, v| to(&mut o.capacity, v))
            .default("50000"),
        flag("--faults", Value("<spec>"), "e.g. 'seed=7; loss=0.1; outage=all,timeout,28800,57600; \
            member=0,3600,7200; retries=2; timeout=1500; backoff=200; budget=4000'",
            |o, v| some(&mut o.faults, v)),
        flag("--stale", Value("<secs>"), "serve-stale window", |o, v| some(&mut o.stale, v)),
        flag("--metrics", Value("<file>"), "export the metrics registry (.csv = timeline table, \
            anything else = full JSON dump)", |o, v| some(&mut o.metrics, v)),
        flag("--buckets", Value("<n>"), "timeline buckets per day", |o, v| to(&mut o.buckets, v))
            .default("24"),
        flag("--attack", Value("<spec>"), "inject a random-subdomain flood, e.g. 'seed=9; \
            victim=flood.example; labellen=16; clients=300; surge=28800,50400,20'",
            |o, v| some(&mut o.attack, v)),
        flag("--rrl", Switch, "enable NXDOMAIN response-rate-limiting", |o, v| to(&mut o.rrl, v)),
        flag("--queue-depth", Value("<n>"), "bound the per-member admission queue",
            |o, v| some(&mut o.queue_depth, v)),
        flag("--service-rate", Value("<n>"), "queued queries retired per member per second",
            |o, v| some(&mut o.service_rate, v)),
    ] }, &STORE],
    validate,
    run,
};

fn validate(o: &Opts) -> Result<(), String> {
    o.check_scenario()?;
    o.check_store()?;
    ensure(o.members > 0, "--members must be at least 1")?;
    ensure(o.capacity > 0, "--capacity must be at least 1")?;
    // The cache numbers its slots in a position table's 32-bit cells.
    let slot_numbers = format!("--capacity must be below {}", PositionTable::LIMIT);
    ensure(o.capacity < PositionTable::LIMIT, &slot_numbers)?;
    ensure(o.buckets > 0, "--buckets must be at least 1")?;
    let per_second = format!("--buckets must be at most {SECS_PER_DAY}, one per second");
    ensure(o.buckets as u64 <= SECS_PER_DAY, &per_second)?;
    ensure(o.queue_depth != Some(0), "--queue-depth must be at least 1")?;
    ensure(o.service_rate != Some(0), "--service-rate must be at least 1")
}

fn run(o: &Opts) -> Result<(), String> {
    o.refuse_existing_store()?;
    let plan = o.faults.as_deref().map_or(Ok(FaultPlan::default()), str::parse);
    let plan = plan.map_err(|e: FaultSpecError| e.to_string())?;
    let mut config =
        SimConfig { members: o.members, capacity_each: o.capacity, ..SimConfig::default() };
    if let Some(secs) = o.stale {
        config = config.with_serve_stale(Ttl::from_secs(secs));
    }
    let mut sim = ResolverSim::new(config);
    // A registry is filled only when `--metrics` will export it.
    let mut registry = o.metrics.as_ref().map(|_| MetricsRegistry::with_buckets(o.buckets));
    let mut ground_truth = None;
    let mut trace = match &o.trace {
        Some(_) => {
            let events = trace_events(&o.trace)?.collect::<Result<Vec<_>, _>>();
            let events = events.map_err(|e| e.to_string())?;
            DayTrace { day: events.first().map_or(0, |e| e.time.day()), events }
        }
        None => {
            let scenario = o.scenario();
            let trace = scenario.generate_day(o.day);
            ground_truth = Some(scenario.ground_truth().clone());
            trace
        }
    };
    if let Some(spec) = &o.attack {
        let attack: AttackPlan = spec.parse().map_err(|e: AttackSpecError| e.to_string())?;
        attack.inject(&mut trace);
    }
    // Admission control engages as soon as either overload knob is
    // set; without them the replay (and its metric exports) is
    // byte-identical to an overload-unaware build.
    let overload = (o.rrl || o.queue_depth.is_some() || o.service_rate.is_some()).then(|| {
        let d = OverloadConfig::default();
        let queue_depth = o.queue_depth.unwrap_or(d.queue_depth);
        let service_rate = o.service_rate.unwrap_or(d.service_rate);
        OverloadConfig { queue_depth, service_rate, rrl: o.rrl || d.rrl, ..d }
    });
    let mut run = sim.day(&trace).faults(&plan);
    if let Some(registry) = &mut registry {
        run = run.metrics(registry);
    }
    if let Some(gt) = &ground_truth {
        run = run.ground_truth(gt);
    }
    if let Some(cfg) = &overload {
        run = run.overload(cfg);
    }
    let report = run.run();
    // The store is built only when a store flag asks for its summary. It
    // takes the day's distinct records once each, in first-seen order,
    // under the replayed day: one hostile timestamp sizes nothing.
    let mut store_error = None;
    if o.store_reported() {
        let mut store = o.store_backend();
        for (key, _) in report.rr_stats.iter() {
            store.observe_key(key, trace.day);
        }
        // Flush and collapse so a spill directory holds the final
        // single-run image of the day.
        store.optimize();
        eprintln!("{}", o.store_summary_line(&RpdnsStoreSummary::from(&store)));
        store_error = store.io_error().map(ToString::to_string);
    }
    println!("events:            {}", trace.events.len());
    println!("below records:     {}", report.below_total());
    println!("above records:     {}", report.above_total());
    println!("nxdomain (below):  {}", report.nx_below());
    println!("distinct RRs:      {}", report.rr_stats.len());
    println!("cache hit rate:    {:.1}%", report.cache.hit_rate() * 100.0);
    println!("zero-DHR fraction: {:.1}%", report.rr_stats.zero_dhr_fraction() * 100.0);
    println!("premature evicts:  {}", report.cache.premature_evictions());
    if o.faults.is_some() {
        let r = &report.resilience;
        println!("-- resilience --");
        println!(
            "failed attempts:   {} ({} timeouts, {} servfails)",
            r.failed_attempts, r.timeouts, r.upstream_servfails
        );
        println!("retries:           {}", r.retries);
        println!("stale serves:      {}", r.stale_serves);
        println!("servfail (below):  {}", r.servfails_below);
        println!("avail disposable:  {:.2}%", r.disposable.fraction() * 100.0);
        println!("avail other:       {:.2}%", r.nondisposable.fraction() * 100.0);
    }
    if overload.is_some() {
        let load = &report.overload;
        println!("-- overload --");
        println!("offered:           {}", load.offered);
        println!("admitted:          {}", load.admitted);
        println!("dropped:           {}", load.dropped);
        println!("rate limited:      {}", load.rate_limited);
        println!("shed attack/legit: {}/{}", load.shed_attack, load.shed_legit);
        println!("stale (pressure):  {}", load.stale_under_pressure);
        println!("queue peak:        {}", load.queue_peak);
    }
    if let (Some(path), Some(registry)) = (&o.metrics, &registry) {
        // `.csv` selects the timeline table; anything else gets the
        // full JSON registry dump. Both are deterministic byte-for-byte.
        let payload =
            if path.ends_with(".csv") { registry.timeline_csv() } else { registry.to_json() };
        std::fs::write(path, payload).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote metrics to {path}");
        eprint!("{}", registry.phases().render_table());
    }
    match store_error {
        Some(e) => Err(format!("rpdns store degraded to memory-only: {e}")),
        None => Ok(()),
    }
}
