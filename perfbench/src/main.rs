//! Benchmark entry point:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a host fingerprint line, then, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. An untraced run reports the end-to-end metrics; a traced run
//! measures an untraced half and a traced half of the same length and
//! reports the per-layer metrics, tracing overhead included.
//!
//! The process pins itself to one CPU before it starts any thread. On a
//! small virtual machine a request handed between threads on different
//! CPUs waits for the other CPU to wake, and how long that takes depends
//! on the machine's neighbours; on one CPU the hand-off is a context
//! switch.

use std::process::ExitCode;

use coda_perfbench::{end_to_end, per_layer, Phase, END_TO_END, PER_LAYER, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0_f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// The commit the checkout was made from, when it is a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and so every thread it starts later, to the
/// highest-numbered CPU it may run on. Returns that CPU, or `None` when
/// the platform does not allow it.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; 16];
    // SAFETY: `allowed` is writable and exactly as large as the size
    // passed; pid 0 names the calling thread.
    let got =
        unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let cpu = (0..allowed.len() * 64).rev().find(|c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is readable and exactly as large as the size passed.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

fn report(phases: &[&Phase], names: &[(&str, &str)], values: &[f64]) -> String {
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    let metrics: Vec<String> = names
        .iter()
        .zip(values)
        .map(|((name, unit), v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        attempted.max(1),
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = pin_to_one_cpu().map_or("null".to_string(), |c| c.to_string());
    println!(
        "host {{\"available_parallelism\": {}, \"pinned_cpu\": {}, \"profile\": \"{}\", \
         \"git_rev\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"tail_quantile\": {}}}",
        parallelism,
        pinned,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_rev(),
        w.name,
        args.seed,
        args.seconds,
        args.trace,
        w.tail_q,
    );
    let phases: Vec<Phase>;
    let line = if args.trace {
        let base = (w.run)(args.seed, args.seconds / 2.0, false);
        let mut traced = (w.run)(args.seed, args.seconds / 2.0, true);
        let values = per_layer(w, &base, &mut traced);
        phases = vec![base, traced];
        report(&phases.iter().collect::<Vec<_>>(), PER_LAYER, &values)
    } else {
        let phase = (w.run)(args.seed, args.seconds, false);
        let values = end_to_end(w, &phase);
        phases = vec![phase];
        report(&phases.iter().collect::<Vec<_>>(), END_TO_END, &values)
    };
    for p in &phases {
        eprintln!(
            "inputs {:016x}: {} ops in {:.2} s, {} failed{}",
            p.input_digest,
            p.ops.len(),
            p.elapsed_s,
            p.failed,
            p.errors.iter().map(|e| format!("\n  {e}")).collect::<String>()
        );
    }
    println!("{line}");
    ExitCode::SUCCESS
}
