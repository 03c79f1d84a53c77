//! Untraced end-to-end passes: `perfbench-e2e <setup|measure> --workload W
//! --seed N --dir D [--seconds S]`.
//!
//! `measure` runs one untimed warm-up pass, then timed passes for
//! `--seconds`, and prints one JSON line: every pass's wall and CPU
//! seconds, artifact digest and exact counters, the [`calibrate`] times
//! before each pass and after the last, and the process's peak resident
//! memory. Set-up runs in its own process, so a warm cache's fill never
//! shows in the measured peak memory.

// qccd-lint: allow(vendored-only) — the benchmark package's own library, kept out of the workspace by design
use perfbench::{
    calibrate, json_f64, json_f64s, main_with, peak_rss_mb, workload_pass, Args, Pass,
};

fn measure(args: &Args) -> Result<(), String> {
    let spec = args.spec()?;
    let mut calibrations = Vec::new();
    let passes = args.repeat(|| {
        calibrations.push(calibrate());
        workload_pass(args.workload, &spec, &args.dirs).map(|(pass, _)| pass)
    })?;
    // The first calibration preceded the untimed warm-up pass.
    calibrations.remove(0);
    calibrations.push(calibrate());
    let records: Vec<String> = passes.iter().map(Pass::to_json).collect();
    println!(
        "{{\"passes\": [{}], \"calib_s\": {}, \"peak_rss_mb\": {}}}",
        records.join(", "),
        json_f64s(&calibrations),
        json_f64(peak_rss_mb()),
    );
    Ok(())
}

fn main() {
    main_with(measure);
}
