//! The environment stamp carried by every result, and the process's peak
//! resident set size.

use crate::json::Json;
use crate::workloads::RunConfig;
use std::path::Path;
use std::process::Command;

/// Everything a figure depends on besides the code: two results whose stamps
/// differ in `nproc`, scale, null rate, seed or profile are not comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    pub nproc: usize,
    /// Load-generator threads / connections: `min(nproc, 4)`.
    pub c: usize,
    pub certus_threads: String,
    pub certus_vector: String,
    pub scale: f64,
    pub null_rate: f64,
    pub seed: u64,
    pub seconds: u64,
    pub commit: String,
    pub profile: &'static str,
    pub rustc: String,
}

/// First line of a command's stdout, or `unknown` when it cannot run (the
/// benchmark also runs from exported trees that are not git checkouts).
fn first_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

impl Stamp {
    pub fn gather(cfg: &RunConfig, scale: f64, null_rate: f64) -> Stamp {
        let nproc = nproc();
        let seen = |name: &str| std::env::var(name).unwrap_or_else(|_| "unset".to_string());
        Stamp {
            nproc,
            c: cfg.c,
            certus_threads: seen("CERTUS_THREADS"),
            certus_vector: seen("CERTUS_VECTOR"),
            scale,
            null_rate,
            seed: cfg.seed,
            seconds: cfg.seconds,
            commit: first_line("git", &["rev-parse", "HEAD"], &cfg.package_dir),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            rustc: first_line("rustc", &["-V"], &cfg.package_dir),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("nproc", Json::Num(self.nproc as f64)),
            ("c", Json::Num(self.c as f64)),
            ("certus_threads", Json::str(&self.certus_threads)),
            ("certus_vector", Json::str(&self.certus_vector)),
            ("scale", Json::Num(self.scale)),
            ("null_rate", Json::Num(self.null_rate)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds as f64)),
            ("commit", Json::str(&self.commit)),
            ("profile", Json::str(self.profile)),
            ("rustc", Json::str(&self.rustc)),
        ])
    }

    pub fn line(&self) -> String {
        format!(
            "nproc={} C={} CERTUS_THREADS={} CERTUS_VECTOR={} scale={} null_rate={} seed={} \
             seconds={} commit={} profile={} rustc=\"{}\"",
            self.nproc,
            self.c,
            self.certus_threads,
            self.certus_vector,
            self.scale,
            self.null_rate,
            self.seed,
            self.seconds,
            self.commit,
            self.profile,
            self.rustc
        )
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is not available).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart the `VmHWM` high-water mark, so that [`peak_rss_mb`] covers the
/// measured interval only: what the program holds after set-up plus what the
/// operations need, without the set-up checks' own scratch memory (whose
/// peak varied by a fifth between identical runs). Where the kernel does not
/// allow it the mark stays, and the peak covers the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
