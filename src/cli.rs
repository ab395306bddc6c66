//! Command-line interface plumbing for the `csaw` binary.
//!
//! ```text
//! csaw info    --graph dataset:LJ
//! csaw sample  --graph rmat:12:8 --algo node2vec --instances 64 --length 40 --out walks.txt
//! csaw sample  --graph edges.txt --algo neighbor --ns 2 --depth 2 --seed 7
//! csaw quality --graph dataset:WG --algo forest-fire --instances 256 --depth 3
//! ```
//!
//! Graph sources: `dataset:<ABBR>` (Table-II stand-in), `rmat:<scale>:<ef>`
//! (Graph500 R-MAT), or a path to a SNAP-style edge list.

use crate::core::algorithms::*;
use crate::core::api::{Algorithm, FrontierMode};
use crate::core::engine::{RunOptions, Sampler};
use crate::graph::{datasets, generators, io, quality, Csr};
use std::collections::HashMap;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// Subcommand: `info`, `sample`, or `quality`.
    pub command: String,
    /// `--key value` options.
    pub opts: HashMap<String, String>,
}

/// Errors surfaced to the user.
#[derive(Debug, PartialEq)]
pub enum CliError {
    /// No subcommand given, or flags malformed.
    Usage(String),
    /// A value failed to parse or a resource failed to load.
    Invalid(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Invalid(m) => write!(f, "{m}"),
        }
    }
}

impl Cli {
    /// Parses `args` (without the program name).
    pub fn parse(args: &[String]) -> Result<Cli, CliError> {
        let mut it = args.iter();
        let command = it.next().ok_or_else(|| CliError::Usage(USAGE.to_string()))?.clone();
        if !["info", "sample", "quality", "components", "partition", "convert", "ppr", "serve"]
            .contains(&command.as_str())
        {
            return Err(CliError::Usage(format!("unknown command '{command}'\n{USAGE}")));
        }
        let mut opts = HashMap::new();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| CliError::Usage(format!("expected --flag, got '{flag}'")))?;
            let val = it.next().ok_or_else(|| CliError::Usage(format!("--{key} needs a value")))?;
            opts.insert(key.to_string(), val.clone());
        }
        Ok(Cli { command, opts })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.opts.get(key).map(String::as_str)
    }

    fn get_usize(&self, key: &str, default: usize) -> Result<usize, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| CliError::Invalid(format!("--{key} '{v}': {e}"))),
        }
    }

    fn get_f64(&self, key: &str, default: f64) -> Result<f64, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| CliError::Invalid(format!("--{key} '{v}': {e}"))),
        }
    }

    fn get_exec(&self) -> Result<crate::core::engine::ExecMode, CliError> {
        match self.get("exec") {
            None | Some("instance") => Ok(crate::core::engine::ExecMode::InstanceMajor),
            Some("depth") => Ok(crate::core::engine::ExecMode::DepthSync),
            Some(other) => Err(CliError::Invalid(format!(
                "--exec must be 'instance' or 'depth', got '{other}'"
            ))),
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
usage: csaw <command> --graph <source> [options]

commands:
  info        print graph statistics
  sample      run a sampling/random-walk algorithm, print or save edges
  quality     sample, then compare the sample's properties to the original
  components  connected-component structure
  partition   contiguous partition sizes (equal-vertex vs edge-balanced;
              --parts <k>, default 4)
  convert     write the graph as binary CSR (--to <path>), optionally
              relabeled first (--reorder degree|bfs)
  ppr         top-k personalized PageRank by restart walks
              (--source <v>, --alpha <f>, --topk <n>, --walks <n>)
  serve       run the multi-tenant wire-protocol sampling server
              (--addr <ip:port>, --metrics <ip:port>, --smoke self-test)

graph sources:
  dataset:<ABBR>     Table-II stand-in (AM AS CP LJ OR RE WG YE FR TW)
  rmat:<scale>:<ef>  Graph500 R-MAT with 2^scale vertices
  <path>             SNAP-style edge list file

options:
  --algo <name>      simple-walk | biased-walk | mh-walk | jump-walk |
                     restart-walk | node2vec | neighbor | biased-neighbor |
                     forest-fire | snowball | layer | mdrw |
                     random-node | random-edge | ties (one-pass; --fraction <f>)
  --instances <n>    sampling instances (default 16)
  --length <n>       walk length (default 40)
  --depth <n>        sampling depth (default 2)
  --ns <n>           NeighborSize (default 2)
  --p / --q <f>      node2vec parameters (default 1.0)
  --pf <f>           forest-fire burn probability (default 0.7)
  --seed <n>         RNG seed (default 1)
  --exec <mode>      execution order: instance (default, one walker at a
                     time) or depth (lockstep frontier, grouped + prefetched);
                     both orders are bit-identical
  --prefetch-distance <n>  depth-sync software-prefetch lookahead in
                     frontier groups (default 8; 0 disables)
  --out <path>       write sampled edges to a file instead of stdout
  --disk-store <dir> serve adjacency from a partitioned on-disk store in
                     <dir> (written from --graph first when missing);
                     output is bit-identical to the in-memory run
  --disk-pool <n>    decoded-run pool RAM budget in bytes when using
                     --disk-store (default 4194304)
  --disk-parts <n>   partitions when writing a new store (default 8)
";

/// Loads a graph from a `--graph` source string.
pub fn load_graph(source: &str) -> Result<Csr, CliError> {
    if let Some(abbr) = source.strip_prefix("dataset:") {
        let spec = datasets::by_abbr(abbr)
            .ok_or_else(|| CliError::Invalid(format!("unknown dataset '{abbr}'")))?;
        return Ok(spec.build());
    }
    if let Some(rest) = source.strip_prefix("rmat:") {
        let mut parts = rest.split(':');
        let scale: u32 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| CliError::Invalid("rmat:<scale>:<ef> — bad scale".into()))?;
        let ef: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| CliError::Invalid("rmat:<scale>:<ef> — bad edge factor".into()))?;
        if scale > 24 {
            return Err(CliError::Invalid("rmat scale > 24 is too large for the CLI".into()));
        }
        return Ok(generators::rmat(scale, ef, generators::RmatParams::GRAPH500, 42));
    }
    if source.ends_with(".csr") || source.ends_with(".bin") {
        let f = std::fs::File::open(source)
            .map_err(|e| CliError::Invalid(format!("cannot open '{source}': {e}")))?;
        return io::read_binary_csr(f)
            .map_err(|e| CliError::Invalid(format!("cannot read '{source}': {e}")));
    }
    if source.ends_with(".mtx") {
        return io::read_matrix_market(source, false)
            .map_err(|e| CliError::Invalid(format!("cannot read '{source}': {e}")));
    }
    io::read_edge_list(source, false)
        .map_err(|e| CliError::Invalid(format!("cannot read '{source}': {e}")))
}

/// Builds the algorithm named by `--algo` through the Table-I registry
/// ([`csaw_core::algorithms::registry`]); unknown names and invalid
/// parameters come back as typed registry errors.
pub fn build_algorithm(cli: &Cli) -> Result<Box<dyn Algorithm>, CliError> {
    let name = cli.get("algo").unwrap_or("simple-walk");
    let spec =
        AlgoSpec::by_name(name).map_err(|e| CliError::Invalid(format!("--algo: {e}\n{USAGE}")))?;
    let depth_flag = if spec.id.uses_walk_length() {
        cli.get_usize("length", 40)?
    } else {
        cli.get_usize("depth", 2)?
    };
    let spec = AlgoSpec {
        depth: Some(depth_flag),
        neighbor_size: Some(cli.get_usize("ns", 2)?),
        pf: Some(cli.get_f64("pf", 0.7)?),
        p: Some(cli.get_f64("p", 1.0)?),
        q: Some(cli.get_f64("q", 1.0)?),
        p_jump: Some(cli.get_f64("pj", 0.1)?),
        p_restart: Some(cli.get_f64("pr", 0.15)?),
        ..spec
    };
    spec.build().map_err(|e| CliError::Invalid(format!("--algo {name}: {e}")))
}

/// Deterministic seed vertices spread over the graph.
pub fn pick_seeds(n: usize, num_vertices: usize) -> Vec<u32> {
    (0..n).map(|i| ((i as u64 * 2_654_435_761) % num_vertices.max(1) as u64) as u32).collect()
}

/// Resolves `--disk-store`: opens the store in the named directory
/// (writing it from `g` first when missing) and returns a disk-tier
/// config with a stats sink attached, or `None` when the flag is absent.
pub fn disk_config(
    cli: &Cli,
    g: &Csr,
) -> Result<Option<crate::core::residency::DiskRunConfig>, CliError> {
    let Some(dir) = cli.get("disk-store") else { return Ok(None) };
    let dir = std::path::Path::new(dir);
    if !dir.join("store.meta").exists() {
        let parts = cli.get_usize("disk-parts", 8)?.max(1);
        crate::graph::store::write_store(dir, g, parts, 0).map_err(|e| {
            CliError::Invalid(format!("cannot write store '{}': {e}", dir.display()))
        })?;
    }
    let store = crate::graph::store::DiskStore::open(dir)
        .map_err(|e| CliError::Invalid(format!("cannot open store '{}': {e}", dir.display())))?;
    if store.num_vertices() != g.num_vertices() {
        return Err(CliError::Invalid(format!(
            "store '{}' holds {} vertices but --graph has {}",
            dir.display(),
            store.num_vertices(),
            g.num_vertices()
        )));
    }
    Ok(Some(crate::core::residency::DiskRunConfig {
        store: std::sync::Arc::new(store),
        pool_budget: cli.get_usize("disk-pool", 4 << 20)?,
        shared: Some(std::sync::Arc::new(crate::core::residency::DiskTierStats::default())),
    }))
}

/// Runs a boxed algorithm through the engine (monomorphized via the
/// `&dyn Algorithm` forwarding impl in `csaw_core::api`).
pub fn run_boxed(
    g: &Csr,
    algo: &dyn Algorithm,
    instances: usize,
    seed: u64,
) -> crate::core::SampleOutput {
    run_boxed_opts(g, algo, instances, RunOptions { seed, ..Default::default() })
}

/// [`run_boxed`] with caller-supplied [`RunOptions`] (the `sample`
/// command threads the disk-tier config through here).
pub fn run_boxed_opts(
    g: &Csr,
    algo: &dyn Algorithm,
    instances: usize,
    opts: RunOptions,
) -> crate::core::SampleOutput {
    let seed = opts.seed;
    let sampler = Sampler::new(g, &algo).with_options(opts);
    if algo.config().frontier == FrontierMode::BiasedReplace {
        let pools = MultiDimRandomWalk::seed_pools(g.num_vertices(), instances, 64, seed);
        sampler.run(&pools)
    } else {
        sampler.run_single_seeds(&pick_seeds(instances, g.num_vertices()))
    }
}

/// Executes a parsed command, writing human output to `out`. Returns the
/// process exit code.
pub fn execute(cli: &Cli, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let source =
        cli.get("graph").ok_or_else(|| CliError::Usage(format!("--graph is required\n{USAGE}")))?;
    let g = load_graph(source)?;
    let wr = |out: &mut dyn std::io::Write, s: String| {
        let _ = writeln!(out, "{s}");
    };

    match cli.command.as_str() {
        "info" => {
            let s = crate::graph::stats::degree_stats(&g);
            wr(out, format!("vertices        {}", s.vertices));
            wr(out, format!("edges (CSR)     {}", s.edges));
            wr(out, format!("avg degree      {:.2}", s.avg));
            wr(out, format!("max degree      {}", s.max));
            wr(out, format!("median degree   {}", s.median));
            wr(out, format!("isolated        {:.2}%", 100.0 * s.isolated_frac));
            wr(out, format!("skew (cv)       {:.2}", s.cv));
            wr(out, format!("top-1% edges    {:.1}%", 100.0 * s.top1pct_edge_share));
            Ok(())
        }
        "sample" if matches!(cli.get("algo"), Some("random-node" | "random-edge" | "ties")) => {
            let fraction = cli.get_f64("fraction", 0.1)?;
            if !(0.0..=1.0).contains(&fraction) {
                return Err(CliError::Invalid(format!("--fraction {fraction} must be in [0,1]")));
            }
            let seed = cli.get_usize("seed", 1)? as u64;
            let res = match cli.get("algo").unwrap() {
                "random-node" => crate::baselines::onepass::random_node(&g, fraction, seed),
                "random-edge" => crate::baselines::onepass::random_edge(&g, fraction, seed),
                _ => crate::baselines::onepass::ties(&g, fraction, seed),
            };
            wr(
                out,
                format!(
                    "# one-pass {} fraction={fraction}: {} vertices, {} edges",
                    cli.get("algo").unwrap(),
                    res.vertices.len(),
                    res.edges.len()
                ),
            );
            if let Some(path) = cli.get("out") {
                let mut f = std::fs::File::create(path)
                    .map_err(|e| CliError::Invalid(format!("cannot create '{path}': {e}")))?;
                use std::io::Write as _;
                for &(v, u) in &res.edges {
                    writeln!(f, "{v} {u}").map_err(|e| CliError::Invalid(e.to_string()))?;
                }
                wr(out, format!("wrote {} edges to {path}", res.edges.len()));
            }
            Ok(())
        }
        "sample" => {
            let algo = build_algorithm(cli)?;
            let instances = cli.get_usize("instances", 16)?;
            let seed = cli.get_usize("seed", 1)? as u64;
            let disk = disk_config(cli, &g)?;
            let tier = disk.as_ref().and_then(|d| d.shared.clone());
            let exec = cli.get_exec()?;
            let prefetch_distance = cli.get_usize("prefetch-distance", 8)?;
            let opts = RunOptions { seed, disk, exec, prefetch_distance, ..Default::default() };
            let res = run_boxed_opts(&g, algo.as_ref(), instances, opts);
            if let Some(tier) = tier {
                use std::sync::atomic::Ordering::Relaxed;
                wr(
                    out,
                    format!(
                        "# disk tier: {} lookups, {} hits, {} misses, {} evictions, {} pool bytes",
                        tier.lookups.load(Relaxed),
                        tier.hits.load(Relaxed),
                        tier.misses.load(Relaxed),
                        tier.evictions.load(Relaxed),
                        tier.pool_bytes.load(Relaxed),
                    ),
                );
            }
            wr(
                out,
                format!(
                    "# algo={} instances={} edges={}",
                    algo.name(),
                    instances,
                    res.sampled_edges()
                ),
            );
            if let Some(path) = cli.get("out") {
                let mut f = std::fs::File::create(path)
                    .map_err(|e| CliError::Invalid(format!("cannot create '{path}': {e}")))?;
                use std::io::Write as _;
                for (i, inst) in res.instances.iter().enumerate() {
                    for &(v, u) in inst {
                        writeln!(f, "{i} {v} {u}").map_err(|e| CliError::Invalid(e.to_string()))?;
                    }
                }
                wr(out, format!("wrote {} edges to {path}", res.sampled_edges()));
            } else {
                for (i, inst) in res.instances.iter().take(8).enumerate() {
                    wr(out, format!("instance {i}: {inst:?}"));
                }
                if res.instances.len() > 8 {
                    wr(
                        out,
                        format!(
                            "... {} more instances (use --out to save)",
                            res.instances.len() - 8
                        ),
                    );
                }
            }
            Ok(())
        }
        "quality" => {
            let algo = build_algorithm(cli)?;
            let instances = cli.get_usize("instances", 256)?;
            let seed = cli.get_usize("seed", 1)? as u64;
            let res = run_boxed(&g, algo.as_ref(), instances, seed);
            let (sub, _) = res.induce_subgraph();
            let r = quality::compare(&g, &sub, seed);
            wr(
                out,
                format!(
                    "sample: {} vertices, {} edges ({:.1}% of original edges)",
                    sub.num_vertices(),
                    sub.num_edges(),
                    100.0 * sub.num_edges() as f64 / g.num_edges().max(1) as f64
                ),
            );
            wr(out, format!("degree KS distance     {:.4}", r.degree_ks));
            wr(
                out,
                format!(
                    "clustering  orig/sample  {:.4} / {:.4}",
                    r.clustering_original, r.clustering_sample
                ),
            );
            wr(
                out,
                format!(
                    "eff. diameter orig/sample  {:.1} / {:.1}",
                    r.diameter_original, r.diameter_sample
                ),
            );
            Ok(())
        }
        "convert" => {
            let to =
                cli.get("to").ok_or_else(|| CliError::Usage("convert needs --to <path>".into()))?;
            let g = match cli.get("reorder") {
                None => g,
                Some("degree") => {
                    crate::graph::reorder::relabel(&g, &crate::graph::reorder::degree_order(&g))
                }
                Some("bfs") => {
                    crate::graph::reorder::relabel(&g, &crate::graph::reorder::bfs_order(&g, 0))
                }
                Some(other) => {
                    return Err(CliError::Invalid(format!(
                        "--reorder must be 'degree' or 'bfs', got '{other}'"
                    )))
                }
            };
            let f = std::fs::File::create(to)
                .map_err(|e| CliError::Invalid(format!("cannot create '{to}': {e}")))?;
            io::write_binary_csr(&g, f).map_err(|e| CliError::Invalid(e.to_string()))?;
            wr(
                out,
                format!(
                    "wrote {} vertices / {} edges to {to} ({:.2} MB)",
                    g.num_vertices(),
                    g.num_edges(),
                    g.size_bytes() as f64 / 1e6
                ),
            );
            Ok(())
        }
        "ppr" => {
            let source = cli.get_usize("source", 0)? as u32;
            if source as usize >= g.num_vertices() {
                return Err(CliError::Invalid(format!(
                    "--source {source} out of range (graph has {} vertices)",
                    g.num_vertices()
                )));
            }
            let alpha = cli.get_f64("alpha", 0.15)?;
            let topk = cli.get_usize("topk", 10)?;
            let walks = cli.get_usize("walks", 2_000)?;
            let seed = cli.get_usize("seed", 1)? as u64;
            let p = crate::core::estimators::ppr_from_restart_walks(
                &g, source, alpha, walks, 80, 15, seed,
            );
            let mut ranked: Vec<(usize, f64)> =
                p.into_iter().enumerate().filter(|&(_, x)| x > 0.0).collect();
            ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            wr(out, format!("top-{topk} PPR from v{source} (alpha {alpha}, {walks} walks):"));
            for (v, score) in ranked.into_iter().take(topk) {
                wr(out, format!("  v{v:<8} {score:.5}"));
            }
            Ok(())
        }
        "components" => {
            let (labels, count) = crate::graph::traversal::connected_components(&g);
            let mut sizes = vec![0usize; count];
            for &l in &labels {
                sizes[l as usize] += 1;
            }
            sizes.sort_unstable_by(|a, b| b.cmp(a));
            wr(out, format!("components      {count}"));
            wr(out, format!("largest         {}", sizes.first().copied().unwrap_or(0)));
            wr(
                out,
                format!(
                    "giant coverage  {:.1}%",
                    100.0 * sizes.first().copied().unwrap_or(0) as f64
                        / g.num_vertices().max(1) as f64
                ),
            );
            wr(out, format!("singletons      {}", sizes.iter().filter(|&&s| s == 1).count()));
            Ok(())
        }
        "partition" => {
            let k = cli.get_usize("parts", 4)?;
            for (label, ps) in [
                ("equal-vertex", crate::graph::PartitionSet::equal_ranges(&g, k)),
                ("edge-balanced", crate::graph::PartitionSet::edge_balanced(&g, k)),
            ] {
                wr(out, format!("{label} partitions:"));
                for p in ps.parts() {
                    wr(
                        out,
                        format!(
                            "  P{}: vertices [{}, {}) = {}, edges {}, {:.2} MB",
                            p.id,
                            p.start,
                            p.end,
                            p.num_vertices(),
                            p.num_edges(),
                            p.size_bytes() as f64 / 1e6
                        ),
                    );
                }
            }
            Ok(())
        }
        "serve" => {
            use crate::serve::{Client, CsawServer, ServeConfig, WireAlgo};
            use crate::service::{SamplingService, ServiceConfig};

            let mut serve_cfg = ServeConfig::default();
            if let Some(addr) = cli.get("addr") {
                serve_cfg.addr = addr.to_string();
            }
            match cli.get("metrics") {
                Some("off") => serve_cfg.metrics_addr = None,
                Some(addr) => serve_cfg.metrics_addr = Some(addr.to_string()),
                None => {}
            }
            let nv = g.num_vertices().max(1) as u32;
            let service =
                SamplingService::with_engine(std::sync::Arc::new(g), ServiceConfig::default());
            let server = CsawServer::start(service, serve_cfg)
                .map_err(|e| CliError::Invalid(format!("cannot bind server: {e}")))?;
            wr(out, format!("serving on {}", server.addr()));
            if let Some(m) = server.metrics_addr() {
                wr(out, format!("metrics on http://{m}/metrics"));
            }
            if cli.get("smoke").is_some() {
                // Self-test: stream a request over loopback, scrape the
                // metrics page, verify the ledger balances, shut down.
                let mut client = Client::connect(server.addr(), "smoke")
                    .map_err(|e| CliError::Invalid(format!("smoke connect: {e}")))?;
                let streamed = client
                    .sample_streamed(
                        WireAlgo::by_name("biased-walk").with_depth(8),
                        (0..16u32).map(|i| i % nv).collect(),
                        7,
                        4,
                        |_| {},
                    )
                    .map_err(|e| CliError::Invalid(format!("smoke sample: {e}")))?;
                wr(
                    out,
                    format!(
                        "smoke: {} chunks, {} instances, {} edges (base {})",
                        streamed.chunks.len(),
                        streamed.reassemble().len(),
                        streamed.end.sampled_edges,
                        streamed.instance_base
                    ),
                );
                let page = client
                    .stats_text()
                    .map_err(|e| CliError::Invalid(format!("smoke stats: {e}")))?;
                let accounted = crate::serve::parse_value(&page, "csaw_ledger_fully_accounted");
                wr(out, format!("smoke: ledger fully accounted = {}", accounted.unwrap_or(-1.0)));
                let _ = client.goodbye();
                server.shutdown();
                if accounted != Some(1.0) {
                    return Err(CliError::Invalid("smoke: ledger not fully accounted".into()));
                }
                wr(out, "smoke: ok".to_string());
            } else {
                loop {
                    std::thread::sleep(std::time::Duration::from_secs(3600));
                }
            }
            Ok(())
        }
        _ => unreachable!("parse() validated the command"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_flags() {
        let cli = Cli::parse(&args("sample --graph rmat:8:4 --algo node2vec --p 0.5")).unwrap();
        assert_eq!(cli.command, "sample");
        assert_eq!(cli.get("graph"), Some("rmat:8:4"));
        assert_eq!(cli.get_f64("p", 1.0).unwrap(), 0.5);
        assert_eq!(cli.get_usize("instances", 16).unwrap(), 16);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(Cli::parse(&[]), Err(CliError::Usage(_))));
        assert!(matches!(Cli::parse(&args("explode")), Err(CliError::Usage(_))));
        assert!(matches!(Cli::parse(&args("sample graph")), Err(CliError::Usage(_))));
        assert!(matches!(Cli::parse(&args("sample --graph")), Err(CliError::Usage(_))));
        let cli = Cli::parse(&args("sample --graph x --instances nope")).unwrap();
        assert!(matches!(cli.get_usize("instances", 1), Err(CliError::Invalid(_))));
    }

    #[test]
    fn loads_graph_sources() {
        assert!(load_graph("dataset:AM").is_ok());
        assert!(load_graph("rmat:6:2").is_ok());
        assert!(matches!(load_graph("dataset:XX"), Err(CliError::Invalid(_))));
        assert!(matches!(load_graph("rmat:zzz:2"), Err(CliError::Invalid(_))));
        assert!(matches!(load_graph("/no/such/file"), Err(CliError::Invalid(_))));
    }

    #[test]
    fn builds_every_algorithm() {
        for name in [
            "simple-walk",
            "biased-walk",
            "mh-walk",
            "jump-walk",
            "restart-walk",
            "node2vec",
            "neighbor",
            "biased-neighbor",
            "forest-fire",
            "snowball",
            "layer",
            "mdrw",
        ] {
            let cli = Cli::parse(&args(&format!("sample --graph x --algo {name}"))).unwrap();
            assert!(build_algorithm(&cli).is_ok(), "{name}");
        }
        let cli = Cli::parse(&args("sample --graph x --algo bogus")).unwrap();
        assert!(build_algorithm(&cli).is_err());
    }

    #[test]
    fn info_and_sample_execute() {
        let cli = Cli::parse(&args("info --graph rmat:6:2")).unwrap();
        let mut buf = Vec::new();
        execute(&cli, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("vertices        64"));

        let cli =
            Cli::parse(&args("sample --graph rmat:6:2 --algo simple-walk --instances 3")).unwrap();
        let mut buf = Vec::new();
        execute(&cli, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("algo=simple-random-walk"));
    }

    #[test]
    fn components_and_partition_execute() {
        let cli = Cli::parse(&args("components --graph rmat:7:3")).unwrap();
        let mut buf = Vec::new();
        execute(&cli, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("components"));
        assert!(text.contains("giant coverage"));

        let cli = Cli::parse(&args("partition --graph rmat:7:3 --parts 3")).unwrap();
        let mut buf = Vec::new();
        execute(&cli, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("equal-vertex"));
        assert!(text.contains("edge-balanced"));
        assert_eq!(text.matches("P0:").count(), 2);
    }

    #[test]
    fn one_pass_sample_commands() {
        for algo in ["random-node", "random-edge", "ties"] {
            let cmd = format!("sample --graph rmat:7:3 --algo {algo} --fraction 0.3");
            let cli = Cli::parse(&args(&cmd)).unwrap();
            let mut buf = Vec::new();
            execute(&cli, &mut buf).unwrap();
            let text = String::from_utf8(buf).unwrap();
            assert!(text.contains(&format!("one-pass {algo}")), "{text}");
        }
        let cli = Cli::parse(&args("sample --graph rmat:6:2 --algo ties --fraction 1.5")).unwrap();
        assert!(execute(&cli, &mut Vec::new()).is_err());
    }

    #[test]
    fn ppr_command_ranks_source_first() {
        let cli =
            Cli::parse(&args("ppr --graph rmat:6:3 --source 5 --topk 3 --walks 500")).unwrap();
        let mut buf = Vec::new();
        execute(&cli, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("top-3 PPR from v5"));
        let first = text.lines().nth(1).unwrap();
        assert!(first.trim_start().starts_with("v5"), "source should rank first: {first}");
        // Out-of-range source is rejected.
        let cli = Cli::parse(&args("ppr --graph rmat:6:3 --source 9999")).unwrap();
        assert!(execute(&cli, &mut Vec::new()).is_err());
    }

    #[test]
    fn convert_round_trips_binary_csr() {
        let dir = std::env::temp_dir().join("csaw-cli-convert");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.csr");
        let cmd = format!("convert --graph rmat:6:2 --to {} --reorder degree", path.display());
        let cli = Cli::parse(&args(&cmd)).unwrap();
        execute(&cli, &mut Vec::new()).unwrap();
        // Load it back through the CLI's sniffing path.
        let g = load_graph(path.to_str().unwrap()).unwrap();
        assert_eq!(g.num_vertices(), 64);
        // Degree-sorted: non-increasing degrees.
        let degs: Vec<usize> = (0..64u32).map(|v| g.degree(v)).collect();
        assert!(degs.windows(2).all(|w| w[0] >= w[1]));
        // Bad reorder rejected.
        let cmd = format!("convert --graph rmat:6:2 --to {} --reorder zorp", path.display());
        let cli = Cli::parse(&args(&cmd)).unwrap();
        assert!(execute(&cli, &mut Vec::new()).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quality_executes() {
        let cli = Cli::parse(&args(
            "quality --graph rmat:8:4 --algo forest-fire --instances 64 --depth 3",
        ))
        .unwrap();
        let mut buf = Vec::new();
        execute(&cli, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("degree KS distance"));
    }

    #[test]
    fn sample_writes_out_file() {
        let dir = std::env::temp_dir().join("csaw-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("walks.txt");
        let cmd = format!(
            "sample --graph rmat:6:2 --algo simple-walk --instances 2 --length 5 --out {}",
            path.display()
        );
        let cli = Cli::parse(&args(&cmd)).unwrap();
        execute(&cli, &mut Vec::new()).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(!content.is_empty());
        for line in content.lines() {
            assert_eq!(line.split_whitespace().count(), 3, "instance src dst");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_store_sample_matches_memory() {
        let dir = std::env::temp_dir().join("csaw-cli-disk-store");
        std::fs::remove_dir_all(&dir).ok();
        let base = "sample --graph rmat:7:3 --algo biased-walk --instances 4 --length 12";
        let mem = {
            let cli = Cli::parse(&args(base)).unwrap();
            let mut buf = Vec::new();
            execute(&cli, &mut buf).unwrap();
            String::from_utf8(buf).unwrap()
        };
        // First disk run writes the store; second reuses it. A tiny pool
        // forces evictions without changing the output.
        for pool in ["4096", "1048576"] {
            let cmd =
                format!("{base} --disk-store {} --disk-parts 4 --disk-pool {pool}", dir.display());
            let cli = Cli::parse(&args(&cmd)).unwrap();
            let mut buf = Vec::new();
            execute(&cli, &mut buf).unwrap();
            let text = String::from_utf8(buf).unwrap();
            let (summary, edges) = text.split_once('\n').unwrap();
            assert!(summary.contains("# disk tier:"), "{text}");
            assert_eq!(edges, mem, "disk-backed output must be bit-identical (pool {pool})");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exec_depth_matches_instance_major() {
        for algo in ["biased-walk --length 12", "snowball --depth 3 --ns 2"] {
            let base = format!("sample --graph rmat:7:3 --algo {algo} --instances 6");
            let run = |cmd: &str| {
                let cli = Cli::parse(&args(cmd)).unwrap();
                let mut buf = Vec::new();
                execute(&cli, &mut buf).unwrap();
                String::from_utf8(buf).unwrap()
            };
            let reference = run(&base);
            for extra in ["--exec depth", "--exec depth --prefetch-distance 0", "--exec instance"] {
                assert_eq!(run(&format!("{base} {extra}")), reference, "{algo} {extra}");
            }
        }
        // Unknown mode is rejected.
        let cli = Cli::parse(&args("sample --graph rmat:6:2 --exec sideways")).unwrap();
        assert!(execute(&cli, &mut Vec::new()).is_err());
    }

    #[test]
    fn mdrw_runs_via_pools() {
        let cli = Cli::parse(&args("sample --graph rmat:6:2 --algo mdrw --instances 2 --length 8"))
            .unwrap();
        let mut buf = Vec::new();
        execute(&cli, &mut buf).unwrap();
    }
}
