//! The per-layer ladder of a runtime shape, each rung timed from outside
//! around public calls on the shape's own tile size and transport:
//! kernel → pack/unpack → wire codec → link → checkpoint → spawn → segment
//! commit → step calc/com → recovery, closed by the paper's §8 models.

use crate::report::{median, tail, Outcome};
use crate::runtime::{self, Job, Jobs, Schedule, Shape};
use crate::spans::Spans;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use subsonic_exec::checkpoint::{dump_tile2, load_dump_bytes, restore_tile2, save_dump_bytes};
use subsonic_exec::{LocalRunner2, Problem2, ThreadedRunner2};
use subsonic_grid::halo::{pack2, unpack2};
use subsonic_grid::Face2;
use subsonic_model::efficiency::NetworkKind;
use subsonic_model::{EfficiencyModel, RecoveryModel};
use subsonic_net::mesh::{connect, MeshBinding, MeshEvent, MeshSpec};
use subsonic_net::wire::{decode_msg, encode_msg};
use subsonic_net::{default_host_addr, Msg, ProcessHost, WorkerHost};
use subsonic_obs::FlightRecorder;
use subsonic_solvers::lbm2::LBM2_HALO;

/// Seconds per call of `f`: the median of five batches, each calibrated to
/// last about `batch_s`.
pub fn per_call(batch_s: f64, mut f: impl FnMut()) -> f64 {
    f(); // warm-up: first touch of buffers and caches
    let mut iters = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let dt = t0.elapsed().as_secs_f64();
        if dt >= batch_s / 4.0 {
            iters = ((iters as f64) * batch_s / dt).ceil().max(1.0) as u64;
            break;
        }
        iters *= 2;
    }
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    median(&batches)
}

fn check(cond: bool, what: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

/// Faces of tile 0 that have a neighbour (both x faces in a periodic 2×1
/// channel).
fn neighbor_faces(problem: &Problem2) -> Vec<Face2> {
    Face2::ALL
        .into_iter()
        .filter(|&f| problem.decomp.neighbor(0, f).is_some())
        .collect()
}

/// Link costs measured by ping-pong.
struct LinkCost {
    rtt_s: Vec<f64>,
    bytes_per_s: f64,
}

/// Ping-pongs `frame` between two peers of a freshly connected two-peer
/// mesh on `shape.transport` for about `budget_s`.
fn ping_pong(shape: &Shape, frame: Vec<u8>, budget_s: f64) -> Result<LinkCost, String> {
    let addr = default_host_addr();
    let bind = || MeshBinding::bind(shape.transport, &addr).map_err(|e| e.to_string());
    let (b0, b1) = (bind()?, bind()?);
    let ports = [
        b0.port().map_err(|e| e.to_string())?,
        b1.port().map_err(|e| e.to_string())?,
    ];
    let peer = |me: u32, binding: MeshBinding, addr: String| {
        std::thread::spawn(move || {
            let others = [1 - me];
            let spec = MeshSpec {
                me,
                epoch: 0,
                peers: &others,
                ports: &ports,
                deadline: Duration::from_secs(20),
                addr: &addr,
                faults: None,
            };
            connect(binding, &spec, None, &|| false).map_err(|e| e.to_string())
        })
    };
    let h0 = peer(0, b0, addr.clone());
    let h1 = peer(1, b1, addr);
    let join = |h: std::thread::JoinHandle<Result<_, String>>| {
        h.join().map_err(|_| "mesh thread panicked".to_string())?
    };
    let mut m0 = join(h0)?;
    let mut m1 = join(h1)?;

    // the echo side: returns every frame until the one-byte stop frame,
    // which it echoes too so the timing side knows it arrived
    let echo = std::thread::spawn(move || loop {
        match m1.recv(Duration::from_secs(5)) {
            Ok(MeshEvent::Frame { payload, .. }) => {
                let stop = payload.len() == 1;
                if m1.send(0, &payload).is_err() || stop {
                    // give a datagram transport time to deliver the echo
                    let _ = m1.recv(Duration::from_millis(200));
                    return;
                }
            }
            _ => return,
        }
    });
    let await_echo = |m: &mut subsonic_net::mesh::Mesh| -> Result<Vec<u8>, String> {
        match m.recv(Duration::from_secs(5)) {
            Ok(MeshEvent::Frame { payload, .. }) => Ok(payload),
            Ok(MeshEvent::Gone { .. }) => Err("echo peer gone".into()),
            Err(e) => Err(format!("echo: {e}")),
        }
    };
    let mut rtt_s = Vec::new();
    let t0 = Instant::now();
    let mut result = Ok(());
    while t0.elapsed().as_secs_f64() < budget_s || rtt_s.len() < 20 {
        let t = Instant::now();
        if let Err(e) = m0.send(1, &frame) {
            result = Err(format!("send: {e}"));
            break;
        }
        match await_echo(&mut m0) {
            Ok(back) if back == frame => rtt_s.push(t.elapsed().as_secs_f64()),
            Ok(_) => {
                result = Err("echoed frame differs".into());
                break;
            }
            Err(e) => {
                result = Err(e);
                break;
            }
        }
    }
    let total = t0.elapsed().as_secs_f64();
    let _ = m0.send(1, &[0u8]);
    let _ = await_echo(&mut m0);
    let _ = echo.join();
    result?;
    Ok(LinkCost {
        bytes_per_s: 2.0 * frame.len() as f64 * rtt_s.len() as f64 / total,
        rtt_s,
    })
}

/// Runs the whole ladder for `shape`, pushing every runtime per-layer
/// metric into `out`. Returns the traced ÷ untraced wall of the ladder job,
/// minus one.
pub fn run(
    shape: &Shape,
    seed: u64,
    seconds: f64,
    root: &Path,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<f64, String> {
    let batch_s = (seconds * 0.005).max(0.005);
    let solver = runtime::solver();
    let problem = runtime::problem(shape, seed);
    let (steps, interval) = (shape.ladder_steps, shape.ladder_interval);
    let refs = spans.scope("exec.reference", |_| {
        runtime::reference(&problem, &[1, steps])
    });
    let faces = neighbor_faces(&problem);
    let tile_nodes = shape.tile_nodes() as f64;

    // kernel: LocalRunner2::step on one tile-sized, single-tile channel
    let node_rate = spans.scope("solvers.node_rate", |_| {
        let one = runtime::channel(shape.nx / 2, shape.ny, 1, seed);
        let mut runner = LocalRunner2::new(runtime::solver(), one);
        tile_nodes / per_call(batch_s, || runner.step())
    });
    out.push("solvers.node_rate", node_rate, "nodes/s");

    // pack/unpack of every population at the LB halo width
    let tile = problem.make_tile(solver.as_ref(), 0);
    let mut strips: Vec<Vec<f64>> = faces
        .iter()
        .map(|&f| {
            let mut buf = Vec::new();
            for g in &tile.f {
                pack2(g, f, LBM2_HALO, &mut buf);
            }
            buf
        })
        .collect();
    let halo_doubles: usize = strips.iter().map(Vec::len).sum();
    let expect: usize = faces
        .iter()
        .map(|&f| solver.message_doubles(&tile, 0, f))
        .sum();
    out.job(check(
        halo_doubles == expect,
        "packed strips differ from the solver's message size",
    ));
    let pack_s = spans.scope("grid.pack", |_| {
        per_call(batch_s, || {
            for (buf, &f) in strips.iter_mut().zip(&faces) {
                buf.clear();
                for g in &tile.f {
                    pack2(g, f, LBM2_HALO, buf);
                }
            }
            black_box(&strips);
        })
    });
    let mut into = tile.clone();
    let unpack_s = spans.scope("grid.unpack", |_| {
        per_call(batch_s, || {
            for (buf, &f) in strips.iter().zip(&faces) {
                let mut at = 0;
                for g in into.f.iter_mut() {
                    at += unpack2(g, f.opposite(), LBM2_HALO, &buf[at..]);
                }
            }
            black_box(&into);
        })
    });
    out.push(
        "grid.pack_doubles_per_s",
        halo_doubles as f64 / pack_s,
        "doubles/s",
    );
    out.push(
        "grid.unpack_doubles_per_s",
        halo_doubles as f64 / unpack_s,
        "doubles/s",
    );
    out.push("grid.halo_doubles_per_step", halo_doubles as f64, "count");

    // wire codec of one halo message
    let msg = Msg::Halo {
        epoch: 1,
        step: 7,
        xch: 0,
        face: 0,
        data: strips[0].clone(),
    };
    let frame = encode_msg(&msg);
    let encode_s = spans.scope("net.wire.encode", |_| {
        per_call(batch_s, || {
            black_box(encode_msg(black_box(&msg)));
        })
    });
    let decode_s = spans.scope("net.wire.decode", |_| {
        per_call(batch_s, || {
            black_box(decode_msg(black_box(&frame)).is_ok());
        })
    });
    let round_trip = matches!(decode_msg(&frame), Ok(Msg::Halo { data, .. }) if data == strips[0]);
    out.job(check(
        round_trip,
        "halo message does not survive encode/decode",
    ));
    out.push("net.wire.halo_encode_ns", encode_s * 1e9, "ns");
    out.push("net.wire.halo_decode_ns", decode_s * 1e9, "ns");

    // link: ping-pong of halo-sized frames over a two-peer mesh
    let link = spans.scope("net.link.pingpong", |_| {
        ping_pong(shape, frame.clone(), 5.0 * batch_s)
    });
    out.job(link.as_ref().map(|_| ()).map_err(Clone::clone));
    let link = link?;
    let rtt_s = median(&link.rtt_s);
    out.push("net.link.rtt_us", rtt_s * 1e6, "us");
    out.push("net.link.rtt_us_tail", tail(&link.rtt_s).0 * 1e6, "us");
    out.push("net.link.bytes_per_s", link.bytes_per_s, "B/s");

    // checkpoint of one tile
    let dump = dump_tile2(&tile);
    let path = root.join("ladder.dump");
    let dump_s = spans.scope("exec.checkpoint.dump", |_| {
        per_call(batch_s, || {
            black_box(dump_tile2(&tile));
        })
    });
    let save_s = spans.scope("exec.checkpoint.save", |_| {
        per_call(batch_s, || {
            black_box(save_dump_bytes(&path, &dump).is_ok());
        })
    });
    let load_s = spans.scope("exec.checkpoint.load", |_| {
        per_call(batch_s, || {
            black_box(load_dump_bytes(&path).is_ok());
        })
    });
    let restore_s = spans.scope("exec.checkpoint.restore", |_| {
        per_call(batch_s, || {
            black_box(restore_tile2(&dump).is_ok());
        })
    });
    let same = load_dump_bytes(&path)
        .ok()
        .and_then(|b| restore_tile2(&b).ok())
        .is_some_and(|t| dump_tile2(&t) == dump);
    out.job(check(same, "checkpoint does not survive save/load/restore"));
    let _ = std::fs::remove_file(&path);
    out.push("exec.checkpoint.bytes", dump.len() as f64, "B");
    out.push("exec.checkpoint.dump_ms", dump_s * 1e3, "ms");
    out.push("exec.checkpoint.save_ms", save_s * 1e3, "ms");
    out.push("exec.checkpoint.load_ms", load_s * 1e3, "ms");
    out.push("exec.checkpoint.restore_ms", restore_s * 1e3, "ms");

    // spawn: ProcessHost::spawn up to a verified Hello
    let spawn_s = spans.scope("net.supervisor.spawn", |_| spawn_cost(root, 5))?;
    out.push("net.supervisor.spawn_ms", spawn_s * 1e3, "ms");

    // in-process ceilings on the same problem
    let serial_rate = spans.scope("exec.serial", |_| {
        let mut runner = LocalRunner2::new(runtime::solver(), problem.clone());
        1.0 / per_call(batch_s, || runner.step())
    });
    let threaded_rate = spans.scope("exec.threaded", |_| {
        let runner = ThreadedRunner2::new(runtime::solver(), problem.clone());
        let n = ((serial_rate * 10.0 * batch_s) as u64).max(4);
        let _ = runner.run(1);
        let t0 = Instant::now();
        match runner.run(n) {
            Ok(_) => Ok(n as f64 / t0.elapsed().as_secs_f64()),
            Err(e) => Err(e.to_string()),
        }
    });
    out.job(threaded_rate.as_ref().map(|_| ()).map_err(Clone::clone));
    out.push("exec.serial_steps_per_s", serial_rate, "steps/s");
    out.push(
        "exec.threaded_steps_per_s",
        threaded_rate.unwrap_or(f64::NAN),
        "steps/s",
    );

    // jobs: set-up, the ladder job at its interval, as one segment, and
    // traced; three rounds
    let mut jobs = Jobs::new(&root.join("ladder"))?;
    let setup_s = spans.scope("net.supervisor.setup", |_| {
        median(&runtime::setup_walls(
            &mut jobs, &problem, shape, &refs[0], out,
        ))
    });
    let clean = Schedule::default();
    let (mut at_interval, mut one_segment, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut timing = None;
    for _ in 0..3 {
        let mut job = |spans: &mut Spans, name, every, traced: bool| {
            spans.scope(name, |spans| {
                let rec = if traced {
                    spans.recorder.clone()
                } else {
                    FlightRecorder::disabled()
                };
                let job = jobs.run(&problem, shape, steps, every, &clean, &rec);
                out.job(runtime::verify(&job, &refs[1], &clean));
                job.ok()
            })
        };
        let a = job(spans, "net.supervisor.job", interval, false);
        let b = job(spans, "net.supervisor.job_one_segment", steps, false);
        let c = job(spans, "obs.traced_job", interval, true);
        let (Some(a), Some(b), Some(c)) = (a, b, c) else {
            return Err("a ladder job failed".into());
        };
        at_interval.push(a.wall_s);
        one_segment.push(b.wall_s);
        traced.push(c.wall_s);
        timing.get_or_insert(a.outcome.timing);
    }
    let commits = (steps / interval) as f64;
    let commit_s = median(
        &at_interval
            .iter()
            .zip(&one_segment)
            .map(|(a, b)| (a - b) / (commits - 1.0))
            .collect::<Vec<_>>(),
    );
    out.push("net.supervisor.commit_ms", commit_s * 1e3, "ms");

    let timing = timing.unwrap_or_default();
    let workers = 2.0;
    let per_step = |d: Duration| d.as_secs_f64() / (timing.steps as f64 * workers);
    out.push("exec.calc_s_per_step", per_step(timing.t_calc), "s");
    out.push("exec.com_s_per_step", per_step(timing.t_com), "s");
    out.push(
        "exec.msgs_per_step",
        timing.msgs_sent as f64 / timing.steps as f64,
        "count",
    );
    out.push(
        "exec.doubles_per_step",
        timing.doubles_sent as f64 / timing.steps as f64,
        "count",
    );

    // recovery: the ladder job with a seeded SIGKILL in every window and
    // one live migration, until the tail is the 75th percentile (40
    // samples) or time runs out
    let probe = Shape {
        kills: (steps / interval) as usize,
        migrations: 1,
        ..*shape
    };
    let (recovery, migration) = spans.scope("net.recovery", |_| {
        let (mut rec, mut mig) = (Vec::new(), Vec::new());
        let t0 = Instant::now();
        for j in 0.. {
            let faults = runtime::schedule(&probe, steps, interval, seed, j);
            let job = jobs.run(
                &problem,
                shape,
                steps,
                interval,
                &faults,
                &FlightRecorder::disabled(),
            );
            out.job(runtime::verify(&job, &refs[1], &faults));
            let Ok(Job { outcome, .. }) = job else { break };
            rec.extend(outcome.recovery_latency.iter().map(Duration::as_secs_f64));
            mig.extend(outcome.migration_cost.iter().map(Duration::as_secs_f64));
            if rec.len() >= 40 || t0.elapsed().as_secs_f64() > seconds / 2.0 {
                break;
            }
        }
        (rec, mig)
    });
    let recovery_s = median(&recovery);
    let (recovery_tail, pct) = tail(&recovery);
    out.push("net.recovery_s", recovery_s, "s");
    out.push("net.recovery_s_tail", recovery_tail, "s");
    out.push("net.recovery_samples", recovery.len() as f64, "count");
    out.push("net.recovery_tail_pct", f64::from(pct), "%");
    out.push("net.migration_s", median(&migration), "s");

    // §8: predict from the measured layers, divide by the measurement
    spans.scope("model", |_| {
        let face_nodes = (faces.len() * shape.ny) as f64;
        let bytes_per_face_node = 8.0 * halo_doubles as f64 / face_nodes;
        let m = face_nodes / tile_nodes.sqrt();
        let eff = EfficiencyModel {
            dim: 2,
            m,
            p: 2,
            u_calc: node_rate,
            v_com: link.bytes_per_s / bytes_per_face_node,
            network: NetworkKind::PointToPoint,
            messages_per_step: faces.len() as f64 / m,
            message_overhead: rtt_s / 2.0,
        };
        let t_step = eff.t_calc(tile_nodes) + eff.t_com(tile_nodes);
        let predicted_wall = setup_s + steps as f64 * t_step + (commits - 1.0) * commit_s;
        out.push(
            "model.step_pred_ratio",
            median(&at_interval) / predicted_wall,
            "ratio",
        );
        let ship_s = dump.len() as f64 / link.bytes_per_s;
        let model = RecoveryModel {
            checkpoint_cost_s: commit_s,
            detection_s: 0.0, // the pause fence reports the kill synchronously
            restart_s: spawn_s + ship_s + restore_s + rtt_s,
            mtbf_s: f64::INFINITY,
            fp_rate_per_s: 0.0,
        };
        out.push(
            "model.recovery_pred_ratio",
            model.single_fault_cost_s(0.0) / recovery_s,
            "ratio",
        );
    });

    Ok(median(&traced) / median(&at_interval) - 1.0)
}

/// Median seconds of `reps` worker spawns, each to a verified `Hello`.
fn spawn_cost(root: &Path, reps: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = root.join("spawn");
    let mut host = ProcessHost::new(exe, vec![runtime::WORKER_ARG.into()], dir.clone())
        .map_err(|e| e.to_string())?;
    let mut walls = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        let link = host.spawn(0).map_err(|e| e.to_string())?;
        walls.push(t0.elapsed().as_secs_f64());
        drop(link);
        host.kill(0);
        host.reap(0);
    }
    drop(host);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(median(&walls))
}
