//! Minimal argument parsing shared by the figure-reproduction binaries.
//!
//! The binaries accept a handful of flags (`--full`, `--dags N`, `--tasks N`,
//! `--tiles N`, `--dump-dot`, `--threads N`, `--exact-backend
//! {bb,milp,lp-export}`, plus `--checkpoint PATH` / `--resume` /
//! `--stop-after N` on the campaign binaries); anything heavier than this
//! hand-rolled parser would be an unnecessary dependency. The thread count
//! can also be set via the `MALS_THREADS` environment variable (`--threads`
//! wins when both are given, `0` means all cores).

use crate::campaign::CampaignIo;
use mals_exact::{ExactBackendKind, MilpBackend};
use mals_util::ParallelConfig;

/// Parsed command-line options of a figure binary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Options {
    /// Run at the paper's full instance sizes instead of the scaled default.
    pub full: bool,
    /// Override the number of DAGs in the campaign.
    pub dags: Option<usize>,
    /// Override the number of tasks per random DAG.
    pub tasks: Option<usize>,
    /// Override the number of tiles of the factored matrix.
    pub tiles: Option<usize>,
    /// Print the DAG in DOT format before the results (Figures 8 / 9).
    pub dump_dot: bool,
    /// Number of worker threads (0 = all cores).
    pub threads: Option<usize>,
    /// Exact backend for the optimal series (`None`: the binary's default).
    pub exact_backend: Option<ExactBackendKind>,
    /// Campaign checkpoint file (`--checkpoint`; campaign binaries only).
    pub checkpoint: Option<String>,
    /// Resume from the checkpoint instead of starting fresh (`--resume`).
    pub resume: bool,
    /// Stop after folding N DAGs this run (`--stop-after`; the deterministic
    /// stand-in for a mid-campaign kill used by the CI resume check).
    pub stop_after: Option<usize>,
}

impl Options {
    /// The thread configuration requested by `--threads`, falling back to
    /// the `MALS_THREADS` environment variable; `None` when neither is set
    /// (callers keep their default).
    pub fn parallel(&self) -> Option<ParallelConfig> {
        self.threads
            .map(ParallelConfig::with_threads)
            .or_else(ParallelConfig::env_override)
    }

    /// [`Options::parallel`] defaulting to a sequential configuration — the
    /// shared `--threads` wiring of the single-DAG binaries.
    pub fn parallel_or_sequential(&self) -> ParallelConfig {
        self.parallel().unwrap_or_else(ParallelConfig::sequential)
    }

    /// Resolves the exact-series solver of a binary into a registry key
    /// (`"bb"` / `"milp"` / `"lp-export"`): the `--exact-backend` flag wins
    /// over `default`, and a MILP selection above its certification ceiling
    /// warns via [`warn_milp_ceiling`]. This is the `--exact-backend`
    /// wiring that used to be copy-pasted across `fig10`–`fig13` and
    /// `minmem`; `n_tasks`/`instance` describe the instance for the
    /// ceiling warning.
    pub fn exact_solver(
        &self,
        default: Option<ExactBackendKind>,
        n_tasks: usize,
        instance: &str,
    ) -> Option<String> {
        let kind = self.exact_backend.or(default)?;
        warn_milp_ceiling(Some(kind), n_tasks, instance);
        Some(kind.solver_key().to_string())
    }

    /// The campaign checkpoint/resume options of this invocation, with
    /// progress reporting enabled (the binaries run interactively).
    pub fn campaign_io(&self) -> CampaignIo {
        CampaignIo {
            checkpoint: self.checkpoint.clone().map(Into::into),
            resume: self.resume,
            stop_after: self.stop_after,
            progress: true,
        }
    }
}

/// Parses the options from an iterator of arguments (excluding the program
/// name). Unknown flags produce an error message listing the valid ones.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
    let mut options = Options::default();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--full" => options.full = true,
            "--dump-dot" => options.dump_dot = true,
            "--dags" => options.dags = Some(parse_value(&arg, iter.next())?),
            "--tasks" => options.tasks = Some(parse_value(&arg, iter.next())?),
            "--tiles" => options.tiles = Some(parse_value(&arg, iter.next())?),
            "--threads" => options.threads = Some(parse_value(&arg, iter.next())?),
            "--checkpoint" => {
                options.checkpoint = Some(
                    iter.next()
                        .ok_or_else(|| "--checkpoint expects a file path".to_string())?,
                )
            }
            "--resume" => options.resume = true,
            "--stop-after" => options.stop_after = Some(parse_value(&arg, iter.next())?),
            "--exact-backend" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--exact-backend expects a value".to_string())?;
                options.exact_backend = Some(ExactBackendKind::parse(&value).ok_or_else(|| {
                    format!(
                        "--exact-backend expects one of {}, got `{value}`",
                        ExactBackendKind::FLAG_VALUES
                    )
                })?);
            }
            "--help" | "-h" => {
                return Err(format!(
                "usage: [--full] [--dags N] [--tasks N] [--tiles N] [--threads N] [--dump-dot] \
                     [--exact-backend {}]\n       \
                     campaign binaries also accept [--checkpoint PATH] [--resume] \
                     [--stop-after N]\n\
                     (MALS_THREADS=N is honoured when --threads is absent; 0 = all cores)",
                ExactBackendKind::FLAG_VALUES
            ))
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(options)
}

fn parse_value(flag: &str, value: Option<String>) -> Result<usize, String> {
    let value = value.ok_or_else(|| format!("{flag} expects a value"))?;
    value
        .parse::<usize>()
        .map_err(|_| format!("{flag} expects an integer, got `{value}`"))
}

/// Parses the process arguments, printing the error and exiting on failure.
pub fn parse_or_exit() -> Options {
    match parse(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }
}

/// Exits with status 2 when `--exact-backend` was passed to a binary that
/// has no exact series (the linear-algebra sweeps run at sizes no exact
/// solver reaches) — a flag must never be accepted and then silently
/// ignored.
pub fn reject_exact_backend(options: &Options, binary: &str) {
    if options.exact_backend.is_some() {
        eprintln!(
            "{binary}: --exact-backend is not supported here (no exact series at this \
             figure's instance sizes); it applies to fig10..fig13 and minmem"
        );
        std::process::exit(2);
    }
}

/// Exits with status 2 when checkpoint/resume flags were passed to a binary
/// that is not a campaign (same never-silently-ignore rule as
/// [`reject_exact_backend`]).
pub fn reject_campaign_flags(options: &Options, binary: &str) {
    if options.checkpoint.is_some() || options.resume || options.stop_after.is_some() {
        eprintln!(
            "{binary}: --checkpoint/--resume/--stop-after apply to the campaign binaries \
             (fig10, fig12) only"
        );
        std::process::exit(2);
    }
}

/// `--exact-backend lp-export` handler shared by the binaries: prints the
/// paper's § 4 ILP of `graph` in CPLEX LP text format on stdout, with the
/// memory bounds pinned at HEFT's own requirement (the `α = 1` point of the
/// campaigns), so the file can be fed to an external MILP solver.
pub fn print_ilp_export(graph: &mals_dag::TaskGraph, platform: &mals_platform::Platform) {
    let bound = crate::sweep::heft_baseline(graph, platform).peaks.max();
    let bounded = platform.with_memory_bounds(bound, bound);
    eprintln!(
        "# exporting the Section-4 ILP ({} tasks, memory bounds = HEFT requirement {bound})",
        graph.n_tasks()
    );
    print!(
        "{}",
        mals_exact::backend::LpExport::export_text(graph, &bounded)
    );
}

/// Dispatches `--exact-backend lp-export`: when selected, builds the
/// figure's instance with `build` (only then — generation can be costly),
/// exports its ILP via [`print_ilp_export`] and returns `true` so the
/// binary can stop instead of running the experiment.
pub fn handle_lp_export(
    options: &Options,
    platform: &mals_platform::Platform,
    build: impl FnOnce() -> mals_dag::TaskGraph,
) -> bool {
    if options.exact_backend != Some(ExactBackendKind::LpExport) {
        return false;
    }
    print_ilp_export(&build(), platform);
    true
}

/// The display name (series label) of a registry solver key, for the
/// binaries' header lines; unknown keys echo back unchanged.
pub fn solver_display_name(key: &str) -> String {
    mals_exact::solver_registry()
        .build(key)
        .map(|s| s.name().to_string())
        .unwrap_or_else(|| key.to_string())
}

/// Warns on stderr when the MILP backend is asked for an instance above its
/// certification ceiling ([`MilpBackend::MAX_TASKS`]): beyond it the
/// backend falls back to the heuristic incumbent, so a series labelled
/// `Optimal(MILP)` would otherwise present heuristic data as optima without
/// any marker.
pub fn warn_milp_ceiling(backend: Option<ExactBackendKind>, n_tasks: usize, instance: &str) {
    if backend == Some(ExactBackendKind::Milp) && n_tasks > MilpBackend::MAX_TASKS {
        eprintln!(
            "# note: {instance} has {n_tasks} tasks, above the MILP backend's {}-task \
             certification ceiling — its Optimal(MILP) series is best-effort (heuristic \
             incumbent); use a smaller instance or --exact-backend bb",
            MilpBackend::MAX_TASKS
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Options, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse_strs(&[]).unwrap();
        assert_eq!(o, Options::default());
        assert!(!o.full);
    }

    #[test]
    fn all_flags() {
        let o = parse_strs(&[
            "--full",
            "--dags",
            "7",
            "--tasks",
            "25",
            "--tiles",
            "9",
            "--threads",
            "4",
            "--dump-dot",
            "--exact-backend",
            "milp",
        ])
        .unwrap();
        assert!(o.full);
        assert_eq!(o.dags, Some(7));
        assert_eq!(o.tasks, Some(25));
        assert_eq!(o.tiles, Some(9));
        assert_eq!(o.threads, Some(4));
        assert!(o.dump_dot);
        assert_eq!(o.exact_backend, Some(ExactBackendKind::Milp));
    }

    #[test]
    fn exact_backend_values() {
        for (flag, kind) in [
            ("bb", ExactBackendKind::BranchAndBound),
            ("milp", ExactBackendKind::Milp),
            ("lp-export", ExactBackendKind::LpExport),
        ] {
            let o = parse_strs(&["--exact-backend", flag]).unwrap();
            assert_eq!(o.exact_backend, Some(kind));
        }
        assert!(parse_strs(&["--exact-backend"]).is_err());
        assert!(parse_strs(&["--exact-backend", "cplex"]).is_err());
    }

    #[test]
    fn threads_flag_maps_to_parallel_config() {
        let o = parse_strs(&["--threads", "4"]).unwrap();
        // The flag always wins over the environment, so this is stable no
        // matter what MALS_THREADS is set to in the surrounding shell.
        assert_eq!(o.parallel().unwrap().resolved_threads(), 4);
        assert_eq!(o.parallel_or_sequential().resolved_threads(), 4);
    }

    #[test]
    fn exact_solver_resolves_flag_over_default() {
        // No flag, no default → no exact series.
        let o = parse_strs(&[]).unwrap();
        assert_eq!(o.exact_solver(None, 8, "test"), None);
        // No flag, a default → the default's registry key.
        assert_eq!(
            o.exact_solver(Some(ExactBackendKind::BranchAndBound), 8, "test"),
            Some("bb".into())
        );
        // The flag wins over the default.
        let o = parse_strs(&["--exact-backend", "milp"]).unwrap();
        assert_eq!(
            o.exact_solver(Some(ExactBackendKind::BranchAndBound), 8, "test"),
            Some("milp".into())
        );
    }

    #[test]
    fn solver_keys_resolve_to_display_names() {
        assert_eq!(solver_display_name("bb"), "Optimal(B&B)");
        assert_eq!(solver_display_name("milp"), "Optimal(MILP)");
        assert_eq!(solver_display_name("memheft"), "MemHEFT");
        // Unknown keys echo back so header lines never panic.
        assert_eq!(solver_display_name("mystery"), "mystery");
        // Every backend kind's key is registered.
        for kind in [
            ExactBackendKind::BranchAndBound,
            ExactBackendKind::Milp,
            ExactBackendKind::LpExport,
        ] {
            assert_eq!(solver_display_name(kind.solver_key()), kind.method_name());
        }
    }

    #[test]
    fn campaign_flags_parse_into_io() {
        let o = parse_strs(&["--checkpoint", "ck.json", "--resume", "--stop-after", "5"]).unwrap();
        assert_eq!(o.checkpoint.as_deref(), Some("ck.json"));
        assert!(o.resume);
        assert_eq!(o.stop_after, Some(5));
        let io = o.campaign_io();
        assert_eq!(
            io.checkpoint.as_deref(),
            Some(std::path::Path::new("ck.json"))
        );
        assert!(io.resume && io.progress);
        assert_eq!(io.stop_after, Some(5));
        assert!(parse_strs(&["--checkpoint"]).is_err());
        assert!(parse_strs(&["--stop-after", "x"]).is_err());
    }

    #[test]
    fn errors() {
        assert!(parse_strs(&["--bogus"]).is_err());
        assert!(parse_strs(&["--dags"]).is_err());
        assert!(parse_strs(&["--dags", "x"]).is_err());
        assert!(parse_strs(&["--help"]).is_err());
    }
}
