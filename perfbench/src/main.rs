//! The repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
//! ```
//!
//! Three workloads submit paper-shaped 2D lattice-Boltzmann channel jobs,
//! one at a time, to the real multi-process runtime; a fourth replays the
//! paper's cluster in the discrete-event simulator. `--trace 0` measures the
//! end-to-end metrics; `--trace 1` runs the per-layer ladder instead, with
//! spans from this crate exported as a Chrome trace. The last line of
//! stdout is the result object; the lines before it record the workload,
//! the machine and (traced) the self time per layer. `--tiny` shrinks every
//! shape for the smoke test. See README.md.

mod layers;
mod report;
mod runtime;
mod sim;
mod spans;

use report::{json_str, machine_json, Outcome};
use runtime::Shape;
use std::path::{Path, PathBuf};
use subsonic_net::TransportKind;

/// What a workload runs.
enum Kind {
    /// Jobs of this shape on the real runtime.
    Runtime(Shape),
    /// The §7 production run in the simulator; the layer ladder runs on
    /// the §7 job's own tile (150×150) over TCP.
    Sim(Shape),
}

struct Workload {
    name: &'static str,
    why: &'static str,
    kind: Kind,
}

fn shape(nx: usize, ny: usize, transport: TransportKind, interval: u64, job_steps: u64) -> Shape {
    Shape {
        nx,
        ny,
        transport,
        interval,
        job_steps,
        kills: 0,
        migrations: 0,
        ladder_steps: 4 * interval,
        ladder_interval: interval,
    }
}

/// The workloads; the reasons match `BENCHMARK.json`.
fn workloads(tiny: bool) -> Vec<Workload> {
    use TransportKind::{Tcp, Udp};
    let coarse = if tiny {
        shape(64, 32, Tcp, 20, 40)
    } else {
        Shape {
            ladder_steps: 40,
            ladder_interval: 10,
            ..shape(1024, 512, Tcp, 500, 250)
        }
    };
    let fine = if tiny {
        shape(48, 24, Udp, 20, 100)
    } else {
        shape(96, 48, Udp, 100, 2000)
    };
    let recover = Shape {
        kills: 2,
        migrations: 1,
        ladder_steps: if tiny { 80 } else { 200 },
        ..if tiny {
            shape(64, 32, Tcp, 10, 100)
        } else {
            shape(256, 128, Tcp, 10, 500)
        }
    };
    let paper_tile = if tiny {
        shape(40, 20, Tcp, 10, 40)
    } else {
        shape(300, 150, Tcp, 50, 200)
    };
    vec![
        Workload {
            name: "coarse-tcp",
            why: "large grain over TCP: two 512x512 tiles, rare commits, so the LB kernel dominates worker time",
            kind: Kind::Runtime(coarse),
        },
        Workload {
            name: "fine-udp",
            why: "small grain over reliable UDP: two 48x48 tiles, so pack, wire, link and supervisor control dominate",
            kind: Kind::Runtime(fine),
        },
        Workload {
            name: "recover-tcp",
            why: "two 128x128 tiles over TCP, commit every 10 steps, seeded SIGKILLs and live migrations: checkpoint and recovery",
            kind: Kind::Runtime(recover),
        },
        Workload {
            name: "paper-cluster-sim",
            why: "the paper's 750x600 LB job on its 25-host pool in the cluster simulator: event engine, bus model, obs hooks",
            kind: Kind::Sim(paper_tile),
        },
    ]
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn usage(why: &str) -> ! {
    eprintln!("perfbench: {why}");
    eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]");
    eprintln!(
        "workloads: {}",
        workloads(false)
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, None, false);
    while let Some(a) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse().ok().or_else(|| usage("bad --seed")),
            "--seconds" => {
                seconds = value()
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--tiny" => tiny = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        tiny,
    }
}

/// Steps of one simulated §7 job: at about one simulated second per step,
/// 10,000 steps span checkpoint rounds (every 900 s) and load-triggered
/// migrations.
fn sim_steps(tiny: bool) -> u64 {
    if tiny {
        200
    } else {
        10_000
    }
}

/// The traced run: the layer ladder on the workload's shape plus the
/// simulator's layers, with the trace overhead taken from the workload's own
/// kind of run.
fn traced(w: &Workload, args: &Args, root: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut spans = spans::Spans::new();
    let (shape, sim_workload) = match &w.kind {
        Kind::Runtime(s) => (s, false),
        Kind::Sim(s) => (s, true),
    };
    let job_overhead = layers::run(shape, args.seed, args.seconds, root, &mut spans, &mut out)?;
    let sim_overhead = sim::layers(
        args.seed,
        args.seconds,
        sim_steps(args.tiny),
        &mut spans,
        &mut out,
    );
    let overhead = if sim_workload {
        sim_overhead
    } else {
        job_overhead
    };
    out.push("obs.trace_overhead_frac", overhead, "fraction");

    let self_time = spans.self_time();
    let body: Vec<String> = self_time
        .iter()
        .map(|(layer, s)| format!("{}: {}", json_str(layer), report::json_num(*s)))
        .collect();
    println!("{{\"self_time_s\": {{{}}}}}", body.join(", "));
    let trace_path = root.with_file_name(format!("trace-{}.json", w.name));
    std::fs::write(&trace_path, spans.finish())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    eprintln!("chrome trace: {}", trace_path.display());
    Ok(out)
}

fn main() {
    // a worker process: this binary re-executed by ProcessHost
    if std::env::args().nth(1).as_deref() == Some(runtime::WORKER_ARG) {
        if let Err(e) = subsonic_net::process_worker_main() {
            eprintln!("worker: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = parse_args();
    let all = workloads(args.tiny);
    let Some(w) = all.iter().find(|w| w.name == args.workload) else {
        usage(&format!("unknown workload {}", args.workload));
    };

    let base = PathBuf::from(".bench_run");
    let root = base.join(format!("{}-{}", w.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&root) {
        eprintln!("perfbench: {}: {e}", root.display());
        std::process::exit(1);
    }
    let root = root.canonicalize().unwrap_or(root);
    println!(
        "{{\"workload\": {}, \"why\": {}, \"seed\": {}, \"machine\": {}}}",
        json_str(w.name),
        json_str(w.why),
        args.seed,
        machine_json(&root)
    );

    let result = if args.trace {
        traced(w, &args, &root)
    } else {
        match &w.kind {
            Kind::Runtime(shape) => runtime::end_to_end(shape, args.seed, args.seconds, &root),
            Kind::Sim(_) => Ok(sim::end_to_end(
                args.seed,
                args.seconds,
                sim_steps(args.tiny),
            )),
        }
    };
    let _ = std::fs::remove_dir_all(&root);
    match result {
        Ok(out) => println!("{}", out.to_json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
