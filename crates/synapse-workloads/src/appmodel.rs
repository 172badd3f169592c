//! Analytic Gromacs-like application behaviour on machine models.
//!
//! Every simulated experiment needs two things the real testbeds would
//! have provided: the application's execution behaviour on a machine
//! (for "execution" data series) and profiles of that behaviour (for
//! the emulator to replay). This module provides both, parameterized
//! the way the paper describes Gromacs (§5): CPU consumption and disk
//! output scale with the iteration count, disk input and memory stay
//! constant.

use synapse_model::{Demand, Profile, ProfileKey, Sample, StorageSample, Tags};
use synapse_sim::{IoOp, KernelClass, KernelProfile, MachineModel, Noise, ParallelMode};

/// Parameters of the modelled application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppModel {
    /// Fixed startup cycles (input parsing, setup).
    pub base_cycles: u64,
    /// Cycles per iteration step.
    pub cycles_per_step: u64,
    /// Constant input read at startup, bytes.
    pub input_bytes: u64,
    /// Bytes per trajectory frame.
    pub frame_bytes: u64,
    /// Steps between frames.
    pub frame_interval: u64,
    /// Resident set at process start (binary + libraries).
    pub rss_base: u64,
    /// Resident set once fully ramped.
    pub rss_max: u64,
    /// Seconds over which the resident set ramps from base to max.
    pub rss_ramp_secs: f64,
    /// Floating-point operations per used cycle.
    pub flops_per_cycle: f64,
}

impl Default for AppModel {
    fn default() -> Self {
        AppModel {
            base_cycles: 500_000_000,
            cycles_per_step: 100_000,
            input_bytes: 2 << 20,
            frame_bytes: 32 << 10,
            frame_interval: 1000,
            rss_base: 2_000_000,
            rss_max: 6_000_000,
            rss_ramp_secs: 0.5,
            flops_per_cycle: 0.5,
        }
    }
}

/// A simulated application (or emulation) run's ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimRun {
    /// Wall-clock execution time Tx in seconds.
    pub tx: f64,
    /// Used CPU cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Floating-point operations.
    pub flops: u64,
    /// Bytes written to storage.
    pub bytes_written: u64,
    /// Bytes read from storage.
    pub bytes_read: u64,
}

impl AppModel {
    /// The Gromacs-like default (identical to `Default`).
    pub fn gromacs() -> Self {
        AppModel::default()
    }

    /// An Amber-like variant: the paper provides "specialized kernels
    /// for applications related to our own research (incl. Gromacs and
    /// Amber)". Amber's MD engine carries a heavier per-step cost and
    /// writes denser trajectories, with a larger resident set.
    pub fn amber() -> Self {
        AppModel {
            base_cycles: 900_000_000,
            cycles_per_step: 180_000,
            frame_bytes: 64 << 10,
            frame_interval: 500,
            rss_base: 4_000_000,
            rss_max: 14_000_000,
            ..AppModel::default()
        }
    }

    /// The canonical profile key for a run of this application.
    pub fn key(&self, steps: u64) -> ProfileKey {
        ProfileKey::new("gromacs mdrun", Tags::new().with("steps", steps))
    }

    /// Noise-free cycle count of a run on the profiling reference
    /// (machine factors are applied separately).
    pub fn cycles(&self, steps: u64) -> u64 {
        self.base_cycles + self.cycles_per_step.saturating_mul(steps)
    }

    /// Trajectory bytes written for a step count.
    pub fn bytes_out(&self, steps: u64) -> u64 {
        if self.frame_interval == 0 {
            return 0;
        }
        (steps / self.frame_interval) * self.frame_bytes
    }

    /// Resident set size at `t` seconds into the run.
    pub fn rss_at(&self, t: f64) -> u64 {
        let ramp = (t / self.rss_ramp_secs.max(1e-9)).clamp(0.0, 1.0);
        let growth = self.rss_max.saturating_sub(self.rss_base);
        self.rss_base.saturating_add((growth as f64 * ramp) as u64)
    }

    /// Simulate an application execution on a machine. Noise perturbs
    /// the modelled quantities like run-to-run system jitter would.
    pub fn execute(&self, machine: &MachineModel, steps: u64, noise: &mut Noise) -> SimRun {
        let app = machine.kernel(KernelClass::Application);
        let cycles = noise.apply_u64((self.cycles(steps) as f64 * machine.app_cycle_factor) as u64);
        let compute_time = machine.compute_time(cycles, KernelClass::Application);
        let bytes_written = self.bytes_out(steps);
        let io_time = machine.io_time(bytes_written, 1 << 20, IoOp::Write, machine.default_fs)
            + machine.io_time(self.input_bytes, 1 << 20, IoOp::Read, machine.default_fs);
        let tx = noise.apply(compute_time + io_time);
        SimRun {
            tx,
            cycles,
            instructions: (cycles as f64 * app.ipc) as u64,
            flops: (cycles as f64 * self.flops_per_cycle) as u64,
            bytes_written,
            bytes_read: self.input_bytes,
        }
    }

    /// Simulate a parallel application execution (Figs 13–14: the
    /// *actual* Gromacs scaling on Titan). Compute parallelizes per
    /// the machine's mode model; I/O stays serial.
    pub fn execute_parallel(
        &self,
        machine: &MachineModel,
        steps: u64,
        workers: u32,
        mode: ParallelMode,
        noise: &mut Noise,
    ) -> SimRun {
        let serial = self.execute(machine, steps, &mut Noise::none());
        let compute_serial = machine.compute_time(serial.cycles, KernelClass::Application);
        let io_time = serial.tx - compute_serial;
        let compute_parallel =
            machine
                .parallel(mode)
                .time(compute_serial, workers, machine.cpu.ncores);
        SimRun {
            tx: noise.apply(compute_parallel + io_time),
            ..serial
        }
    }

    /// Simulate profiling this application on a machine at a sampling
    /// rate, as a lazy stream of the samples the profiler would have
    /// collected — the one place that knows how a profile is
    /// synthesized. The run's noise is drawn here, once; the stream
    /// itself is deterministic and owns everything it needs.
    ///
    /// Faithful to the paper's sampling semantics (§4.1, §4.4):
    ///
    /// * samples cover equidistant intervals of `1/rate_hz` seconds;
    ///   profiling "only terminates when full sample periods have
    ///   passed", so the last interval is a full one even when the
    ///   application ends inside it;
    /// * compute activity spreads over the whole runtime; frame writes
    ///   land in the interval containing their completion time; the
    ///   input read lands in the first interval;
    /// * memory gauges are read at the interval *start* (the first one
    ///   shortly after spawn, ~5 ms), which is what makes single-sample
    ///   profiles underestimate the resident set (Fig. 6 bottom).
    pub fn profile_samples(
        &self,
        machine: &MachineModel,
        steps: u64,
        rate_hz: f64,
        noise: &mut Noise,
    ) -> ProfileSamples {
        let run = self.execute(machine, steps, noise);
        let dt = 1.0 / rate_hz.max(1e-3);
        let frames = steps.checked_div(self.frame_interval).unwrap_or(0);
        ProfileSamples {
            app: *self,
            kernel: machine.kernel(KernelClass::Application),
            run,
            dt,
            nsamples: ((run.tx / dt).ceil() as usize).max(1),
            next: 0,
            cycles_left: run.cycles,
            frames,
            frames_done: 0,
            next_frame: frame_time(run.tx, frames, 0),
        }
    }

    /// Materialize [`AppModel::profile_samples`] into the [`Profile`]
    /// the emulator (or a store) takes.
    pub fn simulate_profile(
        &self,
        machine: &MachineModel,
        steps: u64,
        rate_hz: f64,
        noise: &mut Noise,
    ) -> Profile {
        let samples = self.profile_samples(machine, steps, rate_hz, noise);
        let mut profile = Profile::new(self.key(steps), machine.system_info(), rate_hz);
        profile.runtime = samples.runtime();
        profile.samples.reserve(samples.len());
        for sample in samples {
            profile.push(sample).expect("samples generated in order");
        }
        profile
    }
}

/// Completion time of frame `j` of `frames` in a run of `tx` seconds:
/// a fraction `(j+1)/frames` of the runtime, with the final frame
/// landing strictly inside the last interval.
#[inline]
fn frame_time(tx: f64, frames: u64, j: u64) -> f64 {
    let t = tx * (j + 1) as f64 / frames.max(1) as f64;
    if j + 1 == frames {
        t.min(tx * 0.999)
    } else {
        t
    }
}

/// The samples of one simulated profiling run, synthesized on demand
/// in collection order with O(1) state ([`AppModel::profile_samples`]).
///
/// Iterating yields full [`Sample`]s; [`ProfileSamples::demands`]
/// yields only the [`Demand`] an emulation replays. Both views run the
/// same arithmetic in the same order as the materialized
/// [`AppModel::simulate_profile`] (which is this stream, collected), so
/// a consumer may switch between them without changing a bit of any
/// result derived from the demand fields.
#[derive(Debug, Clone)]
pub struct ProfileSamples {
    app: AppModel,
    /// The application's execution characteristics on the profiled
    /// machine.
    kernel: KernelProfile,
    run: SimRun,
    dt: f64,
    nsamples: usize,
    /// Index of the next sample to yield.
    next: usize,
    cycles_left: u64,
    /// Trajectory frames the run writes, and how many are attributed.
    frames: u64,
    frames_done: u64,
    /// Completion time of frame `frames_done`. Cached: it changes only
    /// when a frame is attributed, not on every sample.
    next_frame: f64,
}

impl ProfileSamples {
    /// The profiled run's wall-clock execution time Tx in seconds
    /// (what [`Profile::runtime`] records).
    pub fn runtime(&self) -> f64 {
        self.run.tx
    }

    /// The replay demands only, one lean [`Demand`] per sample: what
    /// an emulation consumes (compute cycles, storage bytes, memory
    /// allocated/freed; this model has no network traffic), with the
    /// timestamps, operation counts and every observation an emulation
    /// never replays (instructions, stalls, flops, thread and
    /// resident-set gauges) never computed.
    pub fn demands(mut self) -> impl ExactSizeIterator<Item = Demand> {
        (self.next..self.nsamples).map(move |_| self.step())
    }

    /// Synthesize the demands of sample `self.next` and advance.
    /// Callers guarantee `self.next < self.nsamples`.
    #[inline]
    fn step(&mut self) -> Demand {
        let i = self.next;
        self.next += 1;
        let run = &self.run;
        let t0 = i as f64 * self.dt;
        let t1 = t0 + self.dt;
        // Active fraction of this interval.
        let active = ((run.tx.min(t1) - t0).max(0.0)) / run.tx.max(1e-9);
        let cycles = if i + 1 == self.nsamples {
            self.cycles_left
        } else {
            let c = (run.cycles as f64 * active) as u64;
            c.min(self.cycles_left)
        };
        self.cycles_left -= cycles;
        let mut demand = Demand {
            cycles,
            ..Demand::default()
        };
        if i == 0 {
            demand.bytes_read = run.bytes_read;
            demand.allocated = self.app.rss_max;
        }
        while self.frames_done < self.frames && self.next_frame < t1 {
            demand.bytes_written += self.app.frame_bytes;
            self.frames_done += 1;
            self.next_frame = frame_time(run.tx, self.frames, self.frames_done);
        }
        if i + 1 == self.nsamples {
            demand.freed = self.app.rss_max;
        }
        demand
    }
}

impl Iterator for ProfileSamples {
    type Item = Sample;

    /// The demand step plus the timestamps, operation counts and
    /// observations a profiler would also have read in that interval.
    #[inline]
    fn next(&mut self) -> Option<Sample> {
        if self.next == self.nsamples {
            return None;
        }
        let i = self.next;
        let frames_before = self.frames_done;
        let demand = self.step();
        let cycles = demand.cycles;
        let mut sample = Sample::at(i as f64 * self.dt, self.dt);
        sample.compute.cycles = cycles;
        sample.storage = StorageSample {
            bytes_read: demand.bytes_read,
            bytes_written: demand.bytes_written,
            read_ops: demand.bytes_read.div_ceil(1 << 20),
            // One write per trajectory frame attributed to the interval.
            write_ops: self.frames_done - frames_before,
        };
        sample.memory.allocated = demand.allocated;
        sample.memory.freed = demand.freed;
        let efficiency = self.kernel.efficiency;
        let stalled = (cycles as f64 * (1.0 - efficiency) / efficiency.max(1e-6)) as u64;
        sample.compute.instructions = (cycles as f64 * self.kernel.ipc) as u64;
        sample.compute.stalled_frontend = stalled / 4;
        sample.compute.stalled_backend = stalled - stalled / 4;
        sample.compute.flops = (cycles as f64 * self.app.flops_per_cycle) as u64;
        sample.compute.threads = 1;
        // Memory gauge at interval start; the very first reading
        // happens just after spawn.
        let gauge_t = if i == 0 {
            0.005
        } else {
            sample.t.min(self.run.tx)
        };
        sample.memory.rss = self.app.rss_at(gauge_t);
        sample.memory.peak = sample.memory.rss;
        Some(sample)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.nsamples - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for ProfileSamples {}

#[cfg(test)]
mod tests {
    use super::*;
    use synapse_sim::{comet, thinkie, titan};

    #[test]
    fn cycles_scale_linearly_io_input_constant() {
        let app = AppModel::default();
        let c1 = app.cycles(10_000);
        let c2 = app.cycles(20_000);
        assert_eq!(c2 - c1, 10_000 * app.cycles_per_step);
        assert!(app.bytes_out(1_000_000) > app.bytes_out(10_000));
    }

    #[test]
    fn execution_tx_grows_with_steps() {
        let app = AppModel::default();
        let m = thinkie();
        let mut noise = Noise::none();
        let short = app.execute(&m, 10_000, &mut noise);
        let long = app.execute(&m, 1_000_000, &mut noise);
        assert!(long.tx > 10.0 * short.tx);
        assert!(long.bytes_written > short.bytes_written);
        assert_eq!(long.bytes_read, short.bytes_read, "input constant");
    }

    #[test]
    fn thinkie_runtimes_span_paper_range() {
        // Fig. 4: Tx from ~1 s (1e4 steps) to a few hundred seconds
        // (1e7 steps), log-spaced.
        let app = AppModel::default();
        let m = thinkie();
        let mut noise = Noise::none();
        let t4 = app.execute(&m, 10_000, &mut noise).tx;
        let t7 = app.execute(&m, 10_000_000, &mut noise).tx;
        assert!(t4 > 0.3 && t4 < 3.0, "1e4 steps: {t4}");
        assert!(t7 > 100.0 && t7 < 1000.0, "1e7 steps: {t7}");
    }

    #[test]
    fn profile_totals_match_run_ground_truth() {
        let app = AppModel::default();
        let m = thinkie();
        let profile = app.simulate_profile(&m, 100_000, 2.0, &mut Noise::none());
        let totals = profile.totals();
        let run = app.execute(&m, 100_000, &mut Noise::none());
        assert_eq!(totals.cycles, run.cycles, "all cycles accounted");
        assert_eq!(totals.bytes_written, run.bytes_written);
        assert_eq!(totals.bytes_read, run.bytes_read);
        assert!(profile.validate().is_ok());
        assert!(profile.len() >= 2);
    }

    #[test]
    fn profile_cycle_totals_are_rate_independent() {
        // Fig. 6 top: consumed CPU operations are consistent across
        // sampling rates.
        let app = AppModel::default();
        let m = thinkie();
        let mut cycles = Vec::new();
        for rate in [0.1, 0.5, 1.0, 5.0, 10.0] {
            let p = app.simulate_profile(&m, 200_000, rate, &mut Noise::none());
            cycles.push(p.totals().cycles);
        }
        for w in cycles.windows(2) {
            assert_eq!(w[0], w[1], "totals must not depend on rate");
        }
    }

    #[test]
    fn slow_rates_underestimate_resident_memory() {
        // Fig. 6 bottom mechanism: a single early sample catches the
        // pre-ramp resident set.
        let app = AppModel::default();
        let m = thinkie();
        let steps = 20_000; // Tx ~ 1.3 s
        let slow = app.simulate_profile(&m, steps, 0.1, &mut Noise::none());
        let fast = app.simulate_profile(&m, steps, 10.0, &mut Noise::none());
        let rss_slow = slow.totals().mem_peak;
        let rss_fast = fast.totals().mem_peak;
        assert!(
            rss_slow < rss_fast / 2,
            "slow {rss_slow} should underestimate vs fast {rss_fast}"
        );
        assert!(rss_fast >= app.rss_max * 9 / 10);
        assert!(rss_slow <= app.rss_base * 11 / 10);
    }

    #[test]
    fn rss_is_monotone_and_never_below_base_for_any_field_values() {
        // `rss_max < rss_base` used to underflow: a panic in debug, a
        // wrap to ~1.8e19 in release.
        let fields = [
            (2_000_000, 6_000_000),
            (6_000_000, 2_000_000),
            (5, 5),
            (0, u64::MAX),
            (1, u64::MAX),
            (u64::MAX, 0),
        ];
        for (rss_base, rss_max) in fields {
            for rss_ramp_secs in [0.5, 0.0, -1.0, f64::NAN] {
                let app = AppModel {
                    rss_base,
                    rss_max,
                    rss_ramp_secs,
                    ..AppModel::default()
                };
                let mut last = rss_base;
                for t in [-1.0, 0.0, 0.005, 0.1, 0.25, 0.5, 1.0, 1e9, f64::INFINITY] {
                    let rss = app.rss_at(t);
                    assert!(rss >= last, "{app:?} at {t}: {rss} < {last}");
                    last = rss;
                }
                assert!(last <= rss_max.max(rss_base), "{app:?}: {last}");
                assert_eq!(app.rss_at(f64::NAN), rss_base);
            }
        }
        assert_eq!(AppModel::default().rss_at(0.25), 4_000_000);
    }

    #[test]
    fn sample_count_rounds_up_to_full_periods() {
        let app = AppModel::default();
        let m = thinkie();
        let p = app.simulate_profile(&m, 20_000, 1.0, &mut Noise::none());
        // Tx ~1.3 s at 1 Hz -> 2 full periods.
        assert_eq!(p.len(), (p.runtime / 1.0).ceil() as usize);
        assert!(p.observed_span() >= p.runtime);
    }

    #[test]
    fn frames_land_within_runtime_intervals() {
        let app = AppModel::default();
        let m = thinkie();
        let p = app.simulate_profile(&m, 1_000_000, 1.0, &mut Noise::none());
        let total_frames: u64 = p.samples.iter().map(|s| s.storage.write_ops).sum();
        assert_eq!(total_frames, 1_000_000 / app.frame_interval);
        // No frame in intervals entirely past the runtime.
        for s in &p.samples {
            if s.t > p.runtime {
                assert_eq!(s.storage.bytes_written, 0);
            }
        }
    }

    #[test]
    fn parallel_execution_scales_with_diminishing_returns() {
        let app = AppModel::default();
        let m = titan();
        let mut noise = Noise::none();
        let steps = 2_000_000;
        let t1 = app
            .execute_parallel(&m, steps, 1, ParallelMode::OpenMp, &mut noise)
            .tx;
        let t4 = app
            .execute_parallel(&m, steps, 4, ParallelMode::OpenMp, &mut noise)
            .tx;
        let t16 = app
            .execute_parallel(&m, steps, 16, ParallelMode::OpenMp, &mut noise)
            .tx;
        assert!(t4 < t1);
        assert!(t16 < t4);
        let speedup = t1 / t16;
        assert!(speedup < 16.0, "sublinear: {speedup}");
        assert!(speedup > 3.0, "but real: {speedup}");
    }

    #[test]
    fn noise_produces_jitter_with_stable_mean() {
        let app = AppModel::default();
        let m = comet();
        let mut noise = Noise::new(11, 0.02);
        let runs: Vec<f64> = (0..30)
            .map(|_| app.execute(&m, 100_000, &mut noise).tx)
            .collect();
        let s = synapse_model::Summary::of(&runs).unwrap();
        let clean = app.execute(&m, 100_000, &mut Noise::none()).tx;
        assert!((s.mean - clean).abs() / clean < 0.02);
        assert!(s.std > 0.0);
    }

    #[test]
    fn amber_is_heavier_than_gromacs() {
        let m = thinkie();
        let mut noise = Noise::none();
        let steps = 500_000;
        let g = AppModel::gromacs().execute(&m, steps, &mut noise);
        let a = AppModel::amber().execute(&m, steps, &mut noise);
        assert!(a.tx > g.tx, "amber per-step cost is higher");
        assert!(a.bytes_written > g.bytes_written, "denser trajectories");
        let gp = AppModel::gromacs().simulate_profile(&m, steps, 1.0, &mut Noise::none());
        let ap = AppModel::amber().simulate_profile(&m, steps, 1.0, &mut Noise::none());
        assert!(ap.totals().mem_peak > gp.totals().mem_peak);
    }

    #[test]
    fn key_embeds_steps_tag() {
        let app = AppModel::default();
        let k = app.key(12345);
        assert_eq!(k.tags.get("steps"), Some("12345"));
        assert!(k.command.contains("gromacs"));
    }
}
