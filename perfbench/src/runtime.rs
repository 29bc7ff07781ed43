//! Paper-shaped lattice-Boltzmann channel jobs on the real multi-process
//! runtime: `run_problem` under a [`ProcessHost`] whose workers are this
//! binary re-executed into `process_worker_main`.

use crate::report::{median, Outcome, Rng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use subsonic_exec::{GlobalFields2, LocalRunner2, Problem2};
use subsonic_grid::Geometry2;
use subsonic_net::{
    run_problem, NetConfig, NetError, NetKill, NetMigration, NetOutcome, ProcessHost, RetryPolicy,
    TransportKind,
};
use subsonic_obs::FlightRecorder;
use subsonic_solvers::{FluidParams, LatticeBoltzmann2, Solver2};

/// The argument a worker process is started with.
pub const WORKER_ARG: &str = "net-worker";

/// One job shape: a `nx × ny` channel cut into two tiles side by side.
#[derive(Clone, Copy)]
pub struct Shape {
    pub nx: usize,
    pub ny: usize,
    pub transport: TransportKind,
    /// Checkpoint (segment) interval of a measured job.
    pub interval: u64,
    /// Steps of one measured job.
    pub job_steps: u64,
    /// Seeded SIGKILLs per measured job.
    pub kills: usize,
    /// Seeded live migrations per measured job.
    pub migrations: usize,
    /// Steps and interval of the shorter jobs the layer ladder runs (a
    /// `coarse-tcp` job at its own interval is too long to repeat there).
    pub ladder_steps: u64,
    pub ladder_interval: u64,
}

/// One-step jobs timed per `setup_s`.
const SETUPS: usize = 5;

impl Shape {
    /// Nodes of one tile.
    pub fn tile_nodes(&self) -> usize {
        self.nx / 2 * self.ny
    }
}

/// The solver every job runs.
pub fn solver() -> Arc<dyn Solver2> {
    Arc::new(LatticeBoltzmann2)
}

/// The job's problem: the shape's channel cut into two tiles side by side.
pub fn problem(shape: &Shape, seed: u64) -> Problem2 {
    channel(shape.nx, shape.ny, 2, seed)
}

/// An `nx × ny` channel cut into `px` tiles along x, with a seeded initial
/// perturbation: a smooth density and velocity wave whose wavenumbers,
/// phases and amplitude come from `seed`, so every seed is a different flow
/// of the same shape.
pub fn channel(nx: usize, ny: usize, px: usize, seed: u64) -> Problem2 {
    let mut rng = Rng::new(seed, 1);
    let geom = Geometry2::channel(nx, ny, 2);
    let (nx, ny) = (nx as f64, ny as f64);
    let kx = 1.0 + rng.below(4) as f64;
    let ky = 1.0 + rng.below(3) as f64;
    let amp = 5e-4 * (1.0 + rng.unit());
    let tau = std::f64::consts::TAU;
    let (phx, phy) = (rng.unit() * tau, rng.unit() * tau);
    let mut params = FluidParams::lattice_units(0.05);
    params.body_force[0] = 1.5e-5;
    Problem2::new(geom, px, 1, params).with_init(move |x, y| {
        let (x, y) = (x as f64 / nx, y as f64 / ny);
        let wave = (tau * kx * x + phx).sin() * (tau * ky * y + phy).cos();
        (
            1.0 + amp * wave,
            0.1 * amp * wave,
            0.05 * amp * (tau * x).cos(),
        )
    })
}

/// Serial reference fields after each of `checkpoints` steps (ascending).
pub fn reference(problem: &Problem2, checkpoints: &[u64]) -> Vec<GlobalFields2> {
    let mut runner = LocalRunner2::new(solver(), problem.clone());
    let mut at = 0;
    checkpoints
        .iter()
        .map(|&s| {
            runner.run((s - at) as usize);
            at = s;
            runner.gather()
        })
        .collect()
}

/// Seeded SIGKILL and migration schedule of job `job`: kills land at pause
/// fences strictly inside distinct windows spread evenly over the job,
/// alternating victims; migrations land at commit boundaries, one per equal
/// slice of the job.
pub fn schedule(shape: &Shape, steps: u64, interval: u64, seed: u64, job: u64) -> Schedule {
    let mut rng = Rng::new(seed, 1000 + job);
    let windows = steps / interval;
    let first = rng.below(2) as u32;
    let kills = (0..shape.kills as u64)
        .map(|k| {
            let slot = windows / shape.kills as u64;
            let w = k * slot + rng.below(slot);
            NetKill {
                worker: (first + k as u32) % 2,
                at_step: w * interval + 1 + rng.below(interval - 1),
                attempt: 0,
            }
        })
        .collect();
    let migrations = (0..shape.migrations as u64)
        .map(|m| {
            let slot = steps / shape.migrations as u64;
            NetMigration {
                worker: (first + 1 + m as u32) % 2,
                after_step: m * slot + interval + rng.below(slot - 2 * interval),
            }
        })
        .collect();
    Schedule { kills, migrations }
}

/// Faults a job is given.
#[derive(Default, Clone)]
pub struct Schedule {
    pub kills: Vec<NetKill>,
    pub migrations: Vec<NetMigration>,
}

/// Runs jobs in `root`, one fresh run directory per job.
pub struct Jobs {
    pub root: PathBuf,
    exe: PathBuf,
    next: u64,
}

/// One finished job.
pub struct Job {
    pub outcome: NetOutcome,
    pub wall_s: f64,
}

impl Jobs {
    pub fn new(root: &Path) -> Result<Jobs, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        std::fs::create_dir_all(root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(Jobs {
            root: root.to_path_buf(),
            exe,
            next: 0,
        })
    }

    /// Runs one job of `steps` at `interval` with `faults`, timing the whole
    /// `run_problem` call including the host's port-file publish.
    pub fn run(
        &mut self,
        problem: &Problem2,
        shape: &Shape,
        steps: u64,
        interval: u64,
        faults: &Schedule,
        recorder: &FlightRecorder,
    ) -> Result<Job, NetError> {
        let dir = self.root.join(format!("job{}", self.next));
        self.next += 1;
        let mut cfg = NetConfig::new(shape.transport, steps, interval, dir.clone());
        cfg.kills = faults.kills.clone();
        cfg.migrations = faults.migrations.clone();
        // scheduled kills are not a flapping worker: no restart budget, no
        // backoff sleep and no quarantine, so recovery measures the mechanism
        cfg.retry = RetryPolicy {
            max_restarts: u32::MAX,
            backoff_base_ms: 0,
            backoff_max_ms: 0,
            quarantine_after: u32::MAX,
            ..RetryPolicy::default()
        };
        let t0 = Instant::now();
        let mut host = ProcessHost::new(self.exe.clone(), vec![WORKER_ARG.into()], dir.clone())?;
        let outcome = run_problem(problem, &cfg, &mut host, recorder);
        let wall_s = t0.elapsed().as_secs_f64();
        drop(host);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(Job {
            outcome: outcome?,
            wall_s,
        })
    }
}

/// Checks a job against the serial reference and its fault schedule.
pub fn verify(
    job: &Result<Job, NetError>,
    want: &GlobalFields2,
    faults: &Schedule,
) -> Result<(), String> {
    let job = job.as_ref().map_err(|e| e.to_string())?;
    if let Some((x, y, a, b)) = want.first_difference(&job.outcome.fields) {
        return Err(format!(
            "fields differ from the serial run at ({x},{y}): {a} vs {b}"
        ));
    }
    if job.outcome.restarts as usize != faults.kills.len() {
        return Err(format!(
            "{} restarts for {} scheduled kills",
            job.outcome.restarts,
            faults.kills.len()
        ));
    }
    if job.outcome.migrations as usize != faults.migrations.len() {
        return Err(format!(
            "{} migrations for {} scheduled",
            job.outcome.migrations,
            faults.migrations.len()
        ));
    }
    Ok(())
}

/// Walls of [`SETUPS`] one-step jobs of the workload's shape (spawn,
/// `Init` ship, mesh build, one step, one commit, shutdown), each checked
/// against the one-step reference.
pub fn setup_walls(
    jobs: &mut Jobs,
    problem: &Problem2,
    shape: &Shape,
    want: &GlobalFields2,
    out: &mut Outcome,
) -> Vec<f64> {
    let clean = Schedule::default();
    (0..SETUPS)
        .filter_map(|_| {
            let job = jobs.run(problem, shape, 1, 1, &clean, &FlightRecorder::disabled());
            out.job(verify(&job, want, &clean));
            job.ok().map(|j| j.wall_s)
        })
        .collect()
}

/// The end-to-end run of a runtime workload: one-step set-up jobs, then
/// closed-loop jobs for about `seconds`, each checked bitwise and against
/// its schedule. `steps_per_s` is the job's steps over the median job wall,
/// from submission to result.
pub fn end_to_end(shape: &Shape, seed: u64, seconds: f64, root: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut jobs = Jobs::new(root)?;
    let problem = problem(shape, seed);
    let refs = reference(&problem, &[1, shape.job_steps]);
    let setups = setup_walls(&mut jobs, &problem, shape, &refs[0], &mut out);

    let mut walls = Vec::new();
    let t0 = Instant::now();
    for j in 0.. {
        let faults = schedule(shape, shape.job_steps, shape.interval, seed, j);
        let job = jobs.run(
            &problem,
            shape,
            shape.job_steps,
            shape.interval,
            &faults,
            &FlightRecorder::disabled(),
        );
        out.job(verify(&job, &refs[1], &faults));
        let Ok(job) = job else { break };
        walls.push(job.wall_s);
        // stop before a job that would run past the measuring window
        let mean = walls.iter().sum::<f64>() / walls.len() as f64;
        if t0.elapsed().as_secs_f64() + mean > seconds {
            break;
        }
    }
    eprintln!("set-up walls {setups:?}\njob walls {walls:?}");
    out.push(
        "steps_per_s",
        shape.job_steps as f64 / median(&walls),
        "steps/s",
    );
    out.push("setup_s", median(&setups), "s");
    Ok(out)
}
