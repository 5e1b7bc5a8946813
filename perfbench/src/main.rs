//! The repository benchmark: drives an in-process `timberd` server
//! through `timber_client` sessions and reports end-to-end metrics, or
//! with `--trace 1` the per-layer breakdown of a traced twin run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload group_read --seed 1 --seconds 35 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The lines before it are a readable report with sample counts and
//! the run's provenance. Metric definitions are in `perfbench/README.md`.

mod loadgen;
mod oracle;
mod run;
mod stats;
mod trace;
mod workload;

use run::{Env, Loaded, Measured, Traced};
use stats::{median, percentile, summarize};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Query, Spec};

/// End-to-end metrics: `(name, unit)`, reported by every workload.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("titles_mean_ms", "ms"),
    ("count_mean_ms", "ms"),
    ("count_p90_ms", "ms"),
    ("cube_mean_ms", "ms"),
    ("read_qps", "1/s"),
    ("commit_mean_ms", "ms"),
    ("write_amp", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Which workloads one invocation runs.
enum Target {
    One(Spec),
    /// Every workload in turn, each in a child process of its own.
    All,
}

struct Args {
    target: Target,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(Target::All),
            "--workload" => {
                workload = Some(Target::One(workload::spec(&value).ok_or_else(|| {
                    let names: Vec<_> = workload::SPECS.iter().map(|s| s.name).collect();
                    format!(
                        "unknown workload '{value}' (one of {}, all)",
                        names.join(", ")
                    )
                })?))
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(1.0..=600.0).contains(&seconds) {
                    return Err(format!("--seconds must lie in 1..=600, got {seconds}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        target: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Metrics of one run, in report order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str, Option<usize>)>);

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: Option<usize>) {
        self.0.push((name.into(), value, unit, n));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.target {
        Target::One(spec) => run(spec, &args),
        Target::All => run_each(&args),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// Run every workload in a child process of its own, one after the
/// other, so none inherits another's peak RSS or allocator state.
fn run_each(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this program: {e}"))?;
    for spec in workload::SPECS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("start {}: {e}", spec.name))?;
        if !status.success() {
            return Err(format!("workload {} failed ({status})", spec.name));
        }
    }
    Ok(())
}

/// Run one workload and print its report and result line.
fn run(spec: Spec, args: &Args) -> Result<(), String> {
    let probe_before = host_probe_ms();
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        spec.name,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let env = Env {
        spec,
        seed: args.seed,
        seconds: args.seconds,
        work: work.clone(),
    };
    let outcome = measure(&env, args.trace);
    let _ = std::fs::remove_dir_all(&work);
    let (metrics, tally, report) = outcome?;
    print!("{report}");
    println!(
        "host_probe_ms before={probe_before:.2} after={:.2}",
        host_probe_ms()
    );
    let declared: Vec<String> = if args.trace {
        per_layer_names().into_iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0.to_owned()).collect()
    };
    let missing: Vec<&String> = declared
        .iter()
        .filter(|n| metrics.get(n).is_none())
        .collect();
    if !missing.is_empty() {
        return Err(format!("too few samples to report {missing:?}"));
    }
    for (name, value, unit, n) in &metrics.0 {
        let n = n.map_or(String::new(), |n| format!("  (n={n})"));
        println!("  {name:<44} {value:>14.4} {unit}{n}");
    }
    println!("{}", result_json(&metrics, tally)?);
    Ok(())
}

fn measure(env: &Env, traced: bool) -> Result<(Metrics, run::Tally, String), String> {
    let loaded = run::setup(env)?;
    let outcome = if traced {
        run::trace(env, &loaded).map(|t| {
            let tally = t.tally;
            let trace_file = env.work.with_extension("trace.jsonl");
            let written = std::fs::write(&trace_file, t.tracer.to_json_lines());
            let mut report = provenance(env, &loaded, true);
            let _ = writeln!(
                report,
                "spans: {} written to {}{}",
                t.tracer.spans().len(),
                trace_file.display(),
                written
                    .err()
                    .map_or(String::new(), |e| format!(" (failed: {e})"))
            );
            (per_layer(&loaded, &t), tally, report)
        })
    } else {
        run::measure(env, &loaded).map(|m| {
            let mut report = provenance(env, &loaded, false);
            let w = &m.writes;
            let _ = writeln!(
                report,
                "error_ratio={} ({} failed of {} attempted)\n\
                 loadgen.send_lag_p90_ms={:.3} (n={})",
                m.tally.failed as f64 / m.tally.attempted as f64,
                m.tally.failed,
                m.tally.attempted,
                percentile(&w.send_lag_ms, 90.0).unwrap_or(f64::NAN),
                w.send_lag_ms.len(),
            );
            for q in Query::ALL {
                let series = &m.reads.latency_ms[q as usize];
                report.push_str(&latency_line(q.name(), series));
            }
            report.push_str(&latency_line("commit", &w.commit_ms));
            report.push_str(&latency_line("checkpoint", &w.checkpoint_ms));
            (end_to_end(&loaded, &m), m.tally, report)
        })
    };
    let Loaded { server, db, .. } = loaded;
    server.shutdown();
    drop(db);
    outcome
}

/// Mean, quartiles and p90 of one latency series; p90 only from
/// [`stats::MIN_TAIL_SAMPLES`] samples up.
fn latency_line(name: &str, samples: &[f64]) -> String {
    let quarters = stats::quartiles(samples).map_or("-".to_owned(), |[a, b, c]| {
        format!("{a:.3} / {b:.3} / {c:.3}")
    });
    let summary = summarize(samples);
    let mean = summary.map_or("-".to_owned(), |s| format!("{:.3}", s.mean));
    let p90 = summary
        .and_then(|s| s.p90)
        .map_or("-".to_owned(), |p| format!("{p:.3}"));
    format!(
        "latency_ms {name}: n={} mean={mean} q1/median/q3={quarters} p90={p90}\n",
        samples.len()
    )
}

fn provenance(env: &Env, loaded: &Loaded, traced: bool) -> String {
    let s = &env.spec;
    format!(
        "perfbench workload={} seed={} seconds={} trace={}\n\
         provenance: nproc={} commit={} articles={} nodes={} pages={} pool_pages={} \
         store={:?} server_threads=1 writes=\"{}\" checkpoint_every={} commits \
         flush=\"{}\" mix(titles,count,cube)={:?} setup_reps={} reference_states={} reference_s={:.3}\n",
        s.name,
        env.seed,
        env.seconds,
        u8::from(traced),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        git_commit(),
        s.articles,
        loaded.nodes,
        loaded.pages,
        s.pool_pages(),
        s.store,
        s.writes.describe(),
        workload::CHECKPOINT_EVERY,
        workload::FLUSH_POLICY,
        s.mix,
        run::SETUP_REPS,
        loaded.oracle.states(Query::Count),
        loaded.oracle_s,
    )
}

/// The checked-out commit, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn git_commit() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(id) = read(&git.join(reference)) {
        return id.trim().to_owned();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset `VmHWM` to the current RSS, after handing freed heap back to
/// the kernel so the reset starts from what is still in use.
pub fn reset_peak_rss() -> Result<(), String> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free heap pages.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset VmHWM: {e}"))
}

/// Median ms of five walks of one pseudo-random cycle through an
/// 8 MiB table. No change to the repository moves it, so it is a
/// yardstick of the host's speed at the time of a run: the report
/// prints it before and after the run.
fn host_probe_ms() -> f64 {
    const WORDS: u32 = 1 << 21;
    // A full-period linear congruential step: one cycle through every
    // slot, in an order the prefetcher cannot follow.
    let next: Vec<u32> = (0..WORDS)
        .map(|i| i.wrapping_mul(1_103_515_245).wrapping_add(12_345) % WORDS)
        .collect();
    let mut samples = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let mut at = 0;
        for _ in 0..WORDS {
            at = next[at as usize];
        }
        std::hint::black_box(at);
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&samples).unwrap_or(0.0)
}

fn end_to_end(loaded: &Loaded, m: &Measured) -> Metrics {
    let mut out = Metrics::default();
    let reps = Some(loaded.setup_s.len());
    out.push("setup_s", median(&loaded.setup_s).unwrap_or(0.0), "s", reps);
    for q in Query::ALL {
        let samples = &m.reads.latency_ms[q as usize];
        if let Some(s) = summarize(samples) {
            out.push(format!("{}_mean_ms", q.name()), s.mean, "ms", Some(s.n));
            if q == Query::Count {
                if let Some(p90) = s.p90 {
                    out.push("count_p90_ms", p90, "ms", Some(s.n));
                }
            }
        }
    }
    // The reader waits only on the server, so reads over the sum of
    // their latencies is its throughput without the benchmark's checks.
    let latencies = m.reads.latency_ms.concat();
    let busy_s = latencies.iter().sum::<f64>() / 1e3;
    out.push(
        "read_qps",
        latencies.len() as f64 / busy_s,
        "1/s",
        Some(latencies.len()),
    );
    if let Some(s) = summarize(&m.writes.commit_ms) {
        out.push("commit_mean_ms", s.mean, "ms", Some(s.n));
    }
    out.push(
        "write_amp",
        m.writes.write_amp(),
        "ratio",
        Some(m.writes.commits()),
    );
    out.push("peak_rss_mb", peak_rss_mb(), "MiB", None);
    out
}

/// A per-query layer series of the traced run.
type QuerySeries = fn(&run::QueryLayers) -> &[f64];

/// Per-layer metrics of each query: `(name, unit, samples)`, reported
/// as `<name>.<query>`.
const PER_QUERY_LAYER: [(&str, &str, QuerySeries); 13] = [
    ("xquery.compile_ms", "ms", |l| &l.compile_ms),
    ("physical.execute_ms", "ms", |l| &l.execute_ms),
    ("physical.tree_clones", "count", |l| &l.tree_clones),
    ("physical.vec_rows", "count", |l| &l.vec_rows),
    ("result.serialize_ms", "ms", |l| &l.serialize_ms),
    ("result.output_bytes", "bytes", |l| &l.output_bytes),
    ("xmlstore.buffer.page_requests", "count", |l| {
        &l.page_requests
    }),
    ("xmlstore.buffer.serialize_page_requests", "count", |l| {
        &l.serialize_page_requests
    }),
    ("xmlstore.buffer.hit_ratio", "ratio", |l| &l.hit_ratio),
    ("xmlstore.disk.reads", "count", |l| &l.disk_reads),
    ("xmlstore.disk.serialize_reads", "count", |l| {
        &l.serialize_disk_reads
    }),
    ("timberd.wire_ms", "ms", |l| &l.wire_ms),
    ("trace.request_ms", "ms", |l| &l.round_trip_ms),
];

/// A per-run layer series of the traced run.
type RunSeries = fn(&Loaded, &Traced) -> Vec<f64>;

/// Per-layer metrics not tied to one query: `(name, unit, samples)`.
const RUN_LAYER: [(&str, &str, RunSeries); 15] = [
    ("xmlparse.parse_ms.commit", "ms", |_, t| {
        t.commits.parse_ms.clone()
    }),
    ("xmlstore.commit_ms.insert", "ms", |_, t| {
        t.commits.insert_ms.clone()
    }),
    ("xmlstore.commit_ms.replace", "ms", |_, t| {
        t.commits.replace_ms.clone()
    }),
    ("xmlstore.commit_ms.delete", "ms", |_, t| {
        t.commits.delete_ms.clone()
    }),
    ("xmlstore.commit_ms.insert_small", "ms", |_, t| {
        t.commits.insert_small_ms.clone()
    }),
    ("xmlstore.wal.bytes_per_commit", "bytes", |_, t| {
        vec![t.writes.wal_synced_bytes as f64 / commits(t)]
    }),
    ("xmlstore.wal.flushes_per_commit", "count", |_, t| {
        vec![t.writes.wal_flushes as f64 / commits(t)]
    }),
    ("xmlstore.disk.page_writes_per_commit", "count", |_, t| {
        vec![t.writes.page_writes as f64 / commits(t)]
    }),
    ("xmlstore.checkpoint_ms", "ms", |_, t| {
        t.commits.checkpoint_ms.clone()
    }),
    ("loadgen.send_lag_p90_ms", "ms", |_, t| {
        percentile(&t.writes.send_lag_ms, 90.0)
            .into_iter()
            .collect()
    }),
    ("trace.commit_ms", "ms", |_, t| {
        t.commits.traced_commit_ms.clone()
    }),
    ("trace.unspanned_ms", "ms", |_, t| t.unspanned_ms.clone()),
    ("datagen.generate_s", "s", |l, _| vec![l.generate_s]),
    ("xmlparse.parse_s.load", "s", |l, _| l.parse_s.clone()),
    ("xmlstore.load_s", "s", |l, _| l.load_s.clone()),
];

fn commits(t: &Traced) -> f64 {
    t.writes.commits().max(1) as f64
}

/// Every per-layer metric as `(name, unit, samples)`, in report order.
/// Without a run the sample lists are empty.
fn per_layer_series(run: Option<(&Loaded, &Traced)>) -> Vec<(String, &'static str, Vec<f64>)> {
    let mut out = Vec::new();
    for q in Query::ALL {
        let layers = run.map(|(_, t)| &t.queries[q as usize]);
        for (name, unit, series) in PER_QUERY_LAYER {
            let v = layers.map_or(Vec::new(), |l| series(l).to_vec());
            out.push((format!("{name}.{}", q.name()), unit, v));
        }
        for (k, op) in run::TRACKED_OPS.iter().enumerate() {
            let (self_ms, trees) = layers.map_or((Vec::new(), Vec::new()), |l| l.ops[k].clone());
            out.push((format!("physical.{op}.self_ms.{}", q.name()), "ms", self_ms));
            out.push((
                format!("physical.{op}.trees_out.{}", q.name()),
                "count",
                trees,
            ));
        }
    }
    for (name, unit, series) in RUN_LAYER {
        let v = run.map_or(Vec::new(), |(l, t)| series(l, t));
        out.push((name.to_owned(), unit, v));
    }
    out
}

/// Every per-layer metric name and unit, in report order.
fn per_layer_names() -> Vec<(String, &'static str)> {
    per_layer_series(None)
        .into_iter()
        .map(|(name, unit, _)| (name, unit))
        .collect()
}

/// Per-layer medians of a traced run. A layer the workload never
/// reached reports 0 with n=0.
fn per_layer(loaded: &Loaded, t: &Traced) -> Metrics {
    let mut out = Metrics::default();
    for (name, unit, v) in per_layer_series(Some((loaded, t))) {
        out.push(name, median(&v).unwrap_or(0.0), unit, Some(v.len()));
    }
    out
}

/// The final JSON line. Fails when a value is not finite or a declared
/// metric is missing, so a broken run never prints a result.
fn result_json(metrics: &Metrics, tally: run::Tally) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit, _)) in metrics.0.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units `BENCHMARK.json` declares at the repository
    /// root must be exactly the ones this program reports.
    #[test]
    fn benchmark_json_declares_the_reported_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let end = json[start..].find(']').expect("closing bracket") + start;
            json[start..end].to_owned()
        };
        let declared = |section: &str| -> Vec<(String, String)> {
            section
                .split("\"name\": \"")
                .skip(1)
                .map(|rest| {
                    let name = rest[..rest.find('"').unwrap()].to_owned();
                    let u = rest.find("\"unit\": \"").unwrap() + 9;
                    let unit = rest[u..u + rest[u..].find('"').unwrap()].to_owned();
                    (name, unit)
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared(&section("end_to_end")), e2e);
        let layers: Vec<_> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(declared(&section("per_layer")), layers);
        let workloads = section("workloads");
        for s in workload::SPECS {
            assert!(workloads.contains(&format!("\"name\": \"{}\"", s.name)));
        }
    }

    #[test]
    fn result_json_refuses_non_finite_values() {
        let mut m = Metrics::default();
        m.push("a", 1.5, "ms", None);
        let tally = run::Tally {
            attempted: 3,
            failed: 0,
        };
        assert_eq!(
            result_json(&m, tally).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        m.push("b", f64::NAN, "ms", None);
        assert!(result_json(&m, tally).is_err());
    }

    #[test]
    fn args_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let a = args("--workload paged_read --seed 9 --seconds 5 --trace 1").unwrap();
        let Target::One(spec) = a.target else {
            panic!("one workload expected")
        };
        assert_eq!(
            (spec.name, a.seed, a.seconds, a.trace),
            ("paged_read", 9, 5.0, true)
        );
        assert!(matches!(
            args("--workload all").unwrap().target,
            Target::All
        ));
        assert!(args("--workload nope").is_err());
        assert!(args("--workload group_read --trace 2").is_err());
        assert!(args("--seed 1").is_err());
    }
}
