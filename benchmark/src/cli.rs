//! Command lines of the two binaries, the start-up guard rails, and the
//! process orchestration of an end-to-end run.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::compare::compare;
use crate::e2e::{measure, ChildReport};
use crate::json::Json;
use crate::report::WorkloadResult;
use crate::spec::{benchmark_json, spec_json, DEFAULT_SEED, RUN_SECONDS};
use crate::stats::{fnv1a, FNV_OFFSET};
use crate::workloads::{plan, public_report, Size, Workload};
use gqs_workloads::sweep::SweepOptions;

/// Set-up-only children per run, besides the measuring child: `setup_s`
/// is the median over all of them.
const SETUP_ONLY_CHILDREN: usize = 2;

/// This directory (`benchmark/`), where `out/` and `history/` live.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The options every form of the command line shares.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// First positional word (`run`, `compare`, `child`, `spec`), if any.
    pub command: Option<String>,
    /// Remaining positional words.
    pub positional: Vec<String>,
    /// `--workload`.
    pub workload: Option<Workload>,
    /// `--seed` (decimal or `0x` hex; any other text is hashed).
    pub seed: u64,
    /// `--seconds`: how long the timed passes run.
    pub seconds: f64,
    /// `--trace 1`: report the per-layer metrics instead.
    pub trace: bool,
    /// `--quick`: tiny trial counts, output marked not comparable.
    pub quick: bool,
    /// `--setup-only` (children only).
    pub setup_only: bool,
    /// `--out` (`run` only).
    pub out: Option<PathBuf>,
}

impl Args {
    /// The pass size the flags select.
    pub fn size(&self) -> Size {
        if self.quick {
            Size::Quick
        } else {
            Size::Full
        }
    }
}

fn parse_seed(s: &str) -> u64 {
    let hex = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X"));
    hex.and_then(|h| u64::from_str_radix(h, 16).ok())
        .or_else(|| s.parse::<u64>().ok())
        .or_else(|| s.parse::<i64>().ok().map(|v| v as u64))
        .unwrap_or_else(|| fnv1a(FNV_OFFSET, s.as_bytes()))
}

/// Parses a command line (without the program name).
pub fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        command: None,
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        setup_only: false,
        out: None,
    };
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                a.workload = Some(Workload::from_name(&v).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {v:?} (expected one of {})", names.join(", "))
                })?);
            }
            "--seed" => a.seed = parse_seed(&value("--seed")?),
            "--seconds" => {
                let v = value("--seconds")?;
                a.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => a.quick = true,
            "--setup-only" => a.setup_only = true,
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word if a.command.is_none() => a.command = Some(word.to_string()),
            word => a.positional.push(word.to_string()),
        }
    }
    Ok(a)
}

/// Refuses configurations whose numbers would not be comparable: a debug
/// build, or the environment overrides the sweep engine honours.
pub fn guard_rails() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: run with --release".into());
    }
    for var in ["GQS_THREADS", "GQS_MAX_EVENTS"] {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "refusing to run with {var} set: it changes what the workloads execute"
            ));
        }
    }
    Ok(())
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).stderr(Stdio::null()).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The commit the benchmark directory is checked out at, or `unknown`
/// outside a git work tree.
pub fn commit() -> String {
    let dir = bench_dir().to_string_lossy().into_owned();
    command_output("git", &["-C", &dir, "rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown".into())
}

/// What the numbers were measured on.
pub fn environment() -> Json {
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse::<f64>().ok()));
    Json::obj([
        ("commit", Json::str(commit())),
        ("rustc", Json::str(command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()))),
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64)),
        ("load_avg_1min", load.map_or(Json::Null, Json::Num)),
    ])
}

fn spawn_child(args: &Args, workload: Workload, setup_only: bool) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", workload.name()])
        .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    if setup_only {
        cmd.arg("--setup-only");
    }
    let out = cmd.output().map_err(|e| format!("cannot start a child process: {e}"))?;
    if !out.status.success() {
        return Err(format!("child process for {} failed: {}", workload.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    Json::parse(line)
        .ok()
        .as_ref()
        .and_then(ChildReport::from_json)
        .ok_or_else(|| format!("bad child line {line:?}"))
}

/// One end-to-end run of `workload`: set-up-only children, then the
/// measuring child, each a fresh process of this binary.
pub fn drive(args: &Args, workload: Workload) -> Result<WorkloadResult, String> {
    let mut setup_samples = Vec::new();
    for _ in 0..SETUP_ONLY_CHILDREN {
        setup_samples.push(spawn_child(args, workload, true)?.setup_s);
    }
    let child = spawn_child(args, workload, false)?;
    setup_samples.push(child.setup_s);
    Ok(WorkloadResult { workload, seed: args.seed, setup_samples, child })
}

/// Runs the sibling traced binary on `workload` and returns its stdout.
fn run_traced(args: &Args, workload: Workload, relay: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let traced = exe.with_file_name("gqs_benchmark_traced");
    let mut cmd = Command::new(&traced);
    cmd.args(["--workload", workload.name(), "--seed", &args.seed.to_string()])
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("cannot start {}: {e}", traced.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if relay {
        print!("{stdout}");
    }
    if !out.status.success() {
        return Err(format!("traced run of {} failed: {}", workload.name(), out.status));
    }
    Ok(stdout)
}

fn print_metrics(r: &WorkloadResult) {
    println!("workload {} (seed {})", r.workload.name(), r.seed);
    for m in r.end_to_end() {
        println!(
            "  {:<20} {:>16.6} {:<8}  (min {:.6}, max {:.6})",
            m.name, m.value, m.unit, m.min, m.max
        );
    }
    println!(
        "  ops_attempted {}  ops_failed {}  digest {:016x}  digests_agree {}  timed_passes {}",
        r.attempted(),
        r.failed(),
        r.child.digest,
        r.child.digests_agree,
        r.child.pass_wall_s.len()
    );
}

/// `run`: every workload end to end (and traced, with `--trace 1`), the
/// results written to `--out` and, for comparable runs, appended to
/// `history/`.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut workloads = Vec::new();
    let mut ok = true;
    for w in Workload::ALL {
        let r = drive(args, w)?;
        print_metrics(&r);
        ok &= r.correct();
        let mut entry = r.to_json(&plan(w, args.seed, args.size()));
        if args.trace {
            let stdout = run_traced(args, w, false)?;
            let line = Json::parse(stdout.lines().last().unwrap_or(""))
                .map_err(|e| format!("bad traced line: {e}"))?;
            ok &= line.get("correct").and_then(Json::as_bool) == Some(true);
            for (name, m) in line.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                println!(
                    "  {:<32} {:>16.6} {}",
                    name,
                    value,
                    m.get("unit").and_then(Json::as_str).unwrap_or("")
                );
            }
            if let (Json::Obj(pairs), Some(m)) = (&mut entry, line.get("metrics")) {
                pairs.push(("per_layer".into(), m.clone()));
            }
        }
        workloads.push((w.name(), entry));
    }
    let results = Json::obj([
        ("schema", Json::str("gqs_benchmark/v1")),
        ("comparable", Json::Bool(!args.quick)),
        ("seconds", Json::Num(args.seconds)),
        ("environment", environment()),
        ("workloads", Json::obj(workloads)),
    ]);
    let write = |path: &Path| -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, results.pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        Ok(())
    };
    write(&args.out.clone().unwrap_or_else(|| bench_dir().join("out/results.json")))?;
    if !args.quick {
        // Append-only: a commit measured again gets the next free suffix.
        let commit = commit();
        let history = bench_dir().join("history");
        let path = (1..)
            .map(|k| {
                history.join(if k == 1 {
                    format!("{commit}.json")
                } else {
                    format!("{commit}-{k}.json")
                })
            })
            .find(|p| !p.exists())
            .expect("some suffix is free");
        write(&path)?;
    }
    Ok(ok)
}

fn read_results(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let j = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if j.get("comparable").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "{path} is marked comparable: false (a --quick run); refusing to compare it"
        ));
    }
    Ok(j)
}

/// The end-to-end binary's `main`, given the instant it started. Returns
/// the process exit code.
pub fn main_e2e(started: Instant) -> i32 {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gqs_benchmark: {e}\n{USAGE}");
            return 2;
        }
    };
    let fail = |e: String| {
        eprintln!("gqs_benchmark: {e}");
        1
    };
    match args.command.as_deref() {
        Some("spec") => {
            print!("{}", benchmark_json().pretty());
            0
        }
        Some("describe") => {
            print!("{}", spec_json().pretty());
            0
        }
        Some("compare") => {
            let [a, b] = args.positional.as_slice() else {
                eprintln!("gqs_benchmark: compare takes two result files\n{USAGE}");
                return 2;
            };
            match read_results(a).and_then(|a| Ok((a, read_results(b)?))) {
                Ok((a, b)) => {
                    let (table, pass) = compare(&a, &b);
                    print!("{table}");
                    i32::from(!pass)
                }
                Err(e) => fail(e),
            }
        }
        Some("sizes") => {
            // Sizing aid: per-part cost of one public pass, one worker.
            for w in args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]) {
                for part in &plan(w, args.seed, args.size()).parts {
                    let opts = SweepOptions { threads: Some(1), ..SweepOptions::default() };
                    let t0 = Instant::now();
                    std::hint::black_box(public_report(part, &opts));
                    let s = t0.elapsed().as_secs_f64();
                    let us = s / part.trials() as f64 * 1e6;
                    println!(
                        "{:<13} {:<22} {:>6} trials {:>9.1} us/trial {:>7.3} s",
                        w.name(),
                        part.label,
                        part.trials(),
                        us,
                        s
                    );
                }
            }
            0
        }
        Some("child") => {
            if let Err(e) = guard_rails() {
                return fail(e);
            }
            let Some(workload) = args.workload else {
                return fail("child needs --workload".into());
            };
            let r =
                measure(workload, args.seed, args.seconds, args.size(), args.setup_only, started);
            println!("{}", r.to_json().compact());
            0
        }
        Some("run") => match guard_rails().and_then(|()| run_all(&args)) {
            Ok(ok) => i32::from(!ok),
            Err(e) => fail(e),
        },
        Some(other) => {
            eprintln!("gqs_benchmark: unknown command {other:?}\n{USAGE}");
            2
        }
        // The driver's form: one workload, one result line.
        None => {
            let Some(workload) = args.workload else {
                eprintln!("gqs_benchmark: --workload is required\n{USAGE}");
                return 2;
            };
            if let Err(e) = guard_rails() {
                return fail(e);
            }
            if args.trace {
                return match run_traced(&args, workload, true) {
                    Ok(_) => 0,
                    Err(e) => fail(e),
                };
            }
            match drive(&args, workload) {
                Ok(r) => {
                    print_metrics(&r);
                    println!("{}", r.driver_line().compact());
                    0
                }
                Err(e) => fail(e),
            }
        }
    }
}

const USAGE: &str = "usage:
  gqs_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
      one workload; the last stdout line is the result object
  gqs_benchmark run [--seed N] [--seconds S] [--trace 1] [--quick] [--out FILE]
      every workload; writes FILE (default benchmark/out/results.json) and history/<commit>.json
  gqs_benchmark compare A.json B.json
      one row per (end-to-end metric, workload); exits non-zero on a regression
  gqs_benchmark spec | describe
      prints BENCHMARK.json | benchmark/SPEC.json
  gqs_benchmark sizes [--workload NAME]
      per-part cost of one pass, for sizing trial counts";

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_form_and_subcommands() {
        let a = args("--workload scale --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace, a.command),
            (Some(Workload::Scale), 7, 3.0, true, None)
        );
        let a = args("compare a.json b.json").unwrap();
        assert_eq!((a.command.as_deref(), a.positional.len()), (Some("compare"), 2));
        let a = args("run --quick --seed 0xBE7C4A11").unwrap();
        assert_eq!((a.quick, a.seed, a.size()), (true, DEFAULT_SEED, Size::Quick));
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--bogus").is_err());
        assert_eq!(parse_seed("-1"), u64::MAX);
        assert_ne!(parse_seed("abc"), parse_seed("abd"));
    }
}
