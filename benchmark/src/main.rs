//! The benchmark of the served and batch paths. `README.md` beside
//! `Cargo.toml` says what is measured and why; `/BENCHMARK.json` is the
//! contract with the driver.
//!
//! Started by `benchmark/run.sh`, which builds `topk` and this program
//! and passes `--topk PATH` in front of its own arguments:
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! run.sh [--seed N] [--traced]                           every workload, every metric by name
//! run.sh --aa N [--same-seed] [--workload W]             N runs each, spreads judged against the bounds
//! run.sh --smoke                                         tiny corpora, every phase and check, ≤ 10 s
//! ```

mod gen;
mod json;
mod layers;
mod lifecycle;
mod proc;
mod report;
mod spec;
mod stats;
mod wire;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use lifecycle::{Env, Outcome};
use report::Stamp;
use spec::{Tier, END_TO_END, PER_LAYER, RUN_SECONDS, SETUP_REPS, WORKLOADS};

#[derive(Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    population: u64,
    seconds: u64,
    traced: bool,
    aa: Option<usize>,
    smoke: bool,
    /// `--aa` repeats one seed; the default gives each run another.
    same_seed: bool,
    /// The `topk` binary under test; `benchmark/run.sh` builds and names it.
    topk: Option<PathBuf>,
}

const USAGE: &str =
    "usage: topk-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]
                      [--aa N [--same-seed]] [--smoke] [--population N] [--topk PATH]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        population: 1,
        seconds: RUN_SECONDS,
        traced: false,
        aa: None,
        smoke: false,
        same_seed: false,
        topk: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let number = |s: &String| {
            s.parse::<u64>()
                .map_err(|_| format!("{flag}: `{s}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = number(value()?)?,
            "--population" => args.population = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => args.traced = number(value()?)? != 0,
            "--traced" => args.traced = true,
            "--aa" => args.aa = Some(number(value()?)?.max(2) as usize),
            "--smoke" => args.smoke = true,
            "--same-seed" => args.same_seed = true,
            "--topk" => args.topk = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!(
                "unknown workload `{w}`; the workloads are {}",
                names.join(", ")
            ));
        }
    }
    Ok(args)
}

/// The repository this benchmark was built in: the parent of its own
/// package directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from(".."))
}

/// The workload's plan at the tier and `--seconds` asked for.
fn plan_of(name: &str, tier: Tier, args: &Args) -> Result<spec::Plan, String> {
    Ok(spec::plan(name, tier)
        .ok_or_else(|| format!("no plan for {name}"))?
        .scaled(args.seconds))
}

/// One run of one workload: set-up (several times for `setup_s`, the
/// last one is used), the measured phases, the verification.
fn run_one(
    plan: &spec::Plan,
    tier: Tier,
    args: &Args,
    topk: &Path,
    out: &Path,
) -> Result<Outcome, String> {
    let work = out.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let env = Env {
        topk: topk.to_path_buf(),
        work: work.clone(),
        out: out.to_path_buf(),
    };
    let reps = if args.traced { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let mut inputs = None;
    for _ in 0..reps {
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(lifecycle::setup(
            plan,
            tier,
            args.population,
            args.seed,
            &env,
        )?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.ok_or("set-up did not run")?;
    let mut outcome = lifecycle::run(plan, &inputs, &env, args.traced)?;
    outcome.metrics.insert("setup_s", stats::median_of(&setups));
    // Logs of a failed run stay for reading; a clean run leaves nothing.
    if outcome.tally.correct() {
        let _ = std::fs::remove_dir_all(&work);
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("topk-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main(argv: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(argv)?;
    let root = repo_root();
    let out = root.join("benchmark").join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let topk = args
        .topk
        .clone()
        .ok_or("no --topk PATH: start the benchmark with `bash benchmark/run.sh`, which builds the binary and names it")?;
    if !topk.is_file() {
        return Err(format!("{} is not a file", topk.display()));
    }
    // The server and the CLI are started from other directories.
    let topk = topk
        .canonicalize()
        .map_err(|e| format!("{}: {e}", topk.display()))?;
    let stamp = Stamp::of(&root);
    // Before anything is timed.
    match proc::pin_to_last_cpu() {
        Ok(cpu) => eprintln!("topk-benchmark: pinned to CPU {cpu}"),
        Err(e) => eprintln!("topk-benchmark: NOT pinned to one CPU ({e}); expect noisier numbers"),
    }
    let tier = if args.smoke { Tier::Smoke } else { Tier::Full };
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|w| w.0).collect(),
    };
    let defs = if args.traced { PER_LAYER } else { END_TO_END };
    eprintln!(
        "topk-benchmark: commit {} nproc {} tier {} seed {} population {} seconds {}",
        stamp.commit,
        stamp.nproc,
        if args.smoke { "smoke" } else { "full" },
        args.seed,
        args.population,
        args.seconds
    );

    if let Some(n) = args.aa {
        return aa(n, &names, tier, &args, &topk, &out, &root);
    }

    let mut all_good = true;
    let mut last_line = String::new();
    for name in &names {
        let t0 = Instant::now();
        let plan = plan_of(name, tier, &args)?;
        let outcome = run_one(&plan, tier, &args, &topk, &out)?;
        all_good &= outcome.tally.correct();
        let metrics = report::select(defs, &outcome.metrics)?;
        eprintln!(
            "{name}{}: {} operations, {} failed, answer_fnv {:016x}, measured {:.1} s, whole run {:.1} s",
            if args.smoke { " [smoke]" } else { "" },
            outcome.tally.attempted,
            outcome.tally.failed,
            outcome.tally.answer_fnv,
            outcome.measured_s,
            t0.elapsed().as_secs_f64(),
        );
        for p in &outcome.tally.problems {
            eprintln!("  FAILED: {p}");
        }
        if let Some(why) = &outcome.invalid {
            eprintln!("  INVALID: {why}");
        }
        for n in &outcome.notes {
            eprintln!("  {n}");
        }
        eprint!("{}", report::table(&metrics));
        last_line = report::contract_line(&outcome.tally, &metrics);
        if !args.smoke {
            // Smoke numbers are not measurements and are never recorded.
            let file = out.join(format!(
                "result-{name}{}.json",
                if args.traced { "-traced" } else { "" }
            ));
            let json = report::result_json(
                &stamp,
                &plan,
                tier,
                args.seed,
                args.population,
                args.seconds,
                args.traced,
                &outcome.tally,
                &metrics,
            );
            std::fs::write(&file, json + "\n")
                .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
        }
        if args.workload.is_none() {
            println!(
                "{name}{} {last_line}",
                if args.smoke { " smoke" } else { "" }
            );
        }
    }
    if args.workload.is_some() {
        // The driver contract: the result is the last line of stdout.
        println!("{last_line}");
    }
    Ok(if all_good {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `--aa N`: N runs of each workload, each with another seed as the
/// acceptance rule has it, and the spread of every metric judged
/// against its bound.
fn aa(
    n: usize,
    names: &[&str],
    tier: Tier,
    args: &Args,
    topk: &Path,
    out: &Path,
    root: &Path,
) -> Result<ExitCode, String> {
    let bounds = report::bounds(&root.join("BENCHMARK.json"))?;
    let mut over_total = 0;
    let mut all_good = true;
    for name in names {
        let mut runs: Vec<BTreeMap<&'static str, f64>> = Vec::with_capacity(n);
        for i in 0..n {
            let one = Args {
                seed: if args.same_seed {
                    args.seed
                } else {
                    args.seed + i as u64
                },
                ..args.clone()
            };
            let r = run_one(&plan_of(name, tier, &one)?, tier, &one, topk, out)?;
            all_good &= r.tally.correct() && r.invalid.is_none();
            for p in r.tally.problems.iter().chain(&r.invalid) {
                eprintln!("  FAILED ({name}, seed {}): {p}", one.seed);
            }
            let row: Vec<String> = r
                .metrics
                .iter()
                .map(|(k, v)| format!("{k}={v:.4}"))
                .collect();
            eprintln!(
                "{name} run {}/{n} seed {}: {}",
                i + 1,
                one.seed,
                row.join(" ")
            );
            runs.push(r.metrics);
        }
        let (text, over) = report::aa_summary(name, &runs, &bounds);
        print!("{text}");
        over_total += over;
    }
    println!(
        "A/A: {over_total} metric spreads over their bound; verification {}",
        if all_good { "passed" } else { "FAILED" }
    );
    Ok(if over_total == 0 && all_good {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
