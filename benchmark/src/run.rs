//! What every workload takes and returns, and the one loop that measures
//! it: set-up once, then reps until `--seconds` are filled, with the host's
//! speed sampled around each interval.

use std::path::PathBuf;

use crate::calib::Calibration;
use crate::spec::Metrics;
use crate::trace::Tracer;

/// Settings of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub seed: u64,
    /// Volume multiplier of the generated inputs (1.0 = the paper-shaped
    /// day of ~1.2M events and the 600k-record store mix).
    pub scale: f64,
    /// Measured reps repeat until this many seconds have been measured.
    pub seconds: f64,
    /// Hard cap on measured reps (`--smoke` and traced runs use 1).
    pub max_reps: usize,
    /// Probe every layer and report the per-layer metrics.
    pub trace: bool,
    /// The release `dnsnoise` CLI under test.
    pub cli: PathBuf,
    /// Scratch directory of this run, inside the checkout.
    pub work: PathBuf,
}

/// The result of one run of one workload.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations attempted: generated events (or store ops) times reps.
    pub attempted: u64,
    /// Of those, how many were lost by a stage or belong to a rep that
    /// failed a gate.
    pub failed: u64,
    /// Every gate that did not hold; empty means the outputs are correct.
    pub problems: Vec<String>,
    /// Things a reader should see that are not gate failures.
    pub notes: Vec<String>,
    /// Per-rep samples behind the reported medians, for the printout.
    pub samples: Vec<(String, Vec<f64>)>,
    pub tracer: Tracer,
}

/// What [`measure`] hands back: the set-up's product, every measured rep,
/// and the host speed that turns this run's raw seconds into reference
/// seconds (see `calib.rs`).
#[derive(Debug)]
pub struct Measured<S, R> {
    pub inputs: S,
    pub reps: Vec<R>,
    /// Wall seconds of the set-up, as measured.
    pub setup_raw_s: f64,
    pub host_speed: f64,
    /// Every calibration-kernel timing of the run, for the printout.
    pub kernel_s: Vec<f64>,
}

impl<S, R> Measured<S, R> {
    /// `setup_s`, `host.speed` and the raw samples behind them.
    pub fn report(&self, metrics: &mut Metrics, samples: &mut Vec<(String, Vec<f64>)>) {
        metrics.set("setup_s", self.setup_raw_s * self.host_speed);
        metrics.set("host.speed", self.host_speed);
        samples.push(("raw_setup_s".to_owned(), vec![self.setup_raw_s]));
        samples.push(("calibration_kernel_s".to_owned(), self.kernel_s.clone()));
    }
}

/// Runs `set_up` once inside a `setup` span, then `run_rep` (which returns
/// the rep and its measured raw seconds) until `options.seconds` have been
/// measured: at least once and at most `options.max_reps` times.
pub fn measure<S, R>(
    options: &RunOptions,
    tracer: &mut Tracer,
    set_up: impl FnOnce(&mut Tracer) -> Result<S, String>,
    mut run_rep: impl FnMut(&S, &mut Tracer) -> Result<(R, f64), String>,
) -> Result<Measured<S, R>, String> {
    let mut calibration = Calibration::default();
    calibration.sample();
    let (inputs, setup_raw_s) = tracer.span("setup", set_up);
    calibration.sample();
    let inputs = inputs?;

    let mut reps = Vec::new();
    let mut wanted = 1;
    while reps.len() < wanted {
        let (rep, raw_s) = run_rep(&inputs, tracer)?;
        calibration.sample();
        reps.push(rep);
        if reps.len() == 1 {
            let fit = (options.seconds / raw_s.max(1e-3)).ceil() as usize;
            wanted = fit.clamp(1, options.max_reps.max(1));
        }
    }
    Ok(Measured {
        inputs,
        reps,
        setup_raw_s,
        host_speed: calibration.host_speed(),
        kernel_s: calibration.samples().to_vec(),
    })
}
