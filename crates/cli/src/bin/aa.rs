//! The `aa` command-line tool; `aa --help` prints its usage.

#![expect(
    clippy::exit,
    reason = "CLI entry point: nonzero process exits on usage/runtime errors are the shell contract, unlike in library code where the workspace denies them"
)]

use aa_cli::commands::{
    analyze, convert, partition_report, serve_cmd, stream_serve, AnalyzeOpts, ServeOpts, StreamOpts,
};
use aa_cli::Format;
use aa_core::AdditionStrategy;
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "\
usage:
  aa analyze  <graph> [--format edgelist|pajek|metis] [--procs P] [--top K]
              [--top-k K]  (anytime top-k tracker: bound-based pruning + confidence)
              [--strategy roundrobin|cutedge|repartition|restart]
              [--stream FILE] [--save-checkpoint FILE] [--resume FILE]
              [--trace CSV]               (communication trace)
              [--metrics-out JSON]        (dump the metrics registry)
              [--progress-out JSONL]      (anytime progress probe samples)
              [--spans-out JSONL]         (phase spans: DD/IA/RC/updates)
              [--backend sim|threads]     (execution backend, default sim)
              [--threads N]               (threads-backend workers, 0 = per rank)
  aa stream   <graph> <updates> [--format F] [--procs P] [--top K]
              [--top-k K]  (keep the anytime top-k tracker current across flushes)
              [--strategy roundrobin|cutedge|repartition|restart]
              [--batch N]         (size-policy batch target, default 64)
              [--queue-cap N]     (ingest queue hard capacity, default 4096)
              [--drain-policy size|steps:K]
              [--metrics-out JSON]
              [--backend sim|threads] [--threads N]
  aa serve    <graph> [--format F] [--procs P] [--top K]
              [--turns N]         (serving turns to drive, default 64)
              [--offered N]       (requests offered per turn, default 32)
              [--read-fraction R] (read share of offered load, default 0.8)
              [--topk-read-mix R] (top-k share of reads, default 0.7)
              [--deadline-us D]   (read deadline in virtual microseconds)
              [--seed S]          (workload seed)
              [--metrics-out JSON]
              [--data-dir DIR]    (crash-consistent: recover, WAL, checkpoints)
              [--checkpoint-every N] (durable checkpoint cadence in turns)
              [--verify-recovery] (after shutdown, prove a restart replays exactly)
              [--backend sim|threads] [--threads N]
  aa partition <graph> --parts K [--format F]
  aa convert  <in> <out> [--from F] [--to F]
";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    exit(2)
}

/// Takes the one graph path `cmd` accepts: a second is a usage error, not a
/// silent override of the first.
fn set_graph(slot: &mut Option<PathBuf>, arg: &str, cmd: &str) {
    if slot.replace(PathBuf::from(arg)).is_some() {
        fail(&format!(
            "{cmd} takes one graph file, got a second: {arg:?}"
        ));
    }
}

/// A `--procs` value: zero processors is a usage error, as `--parts 0` is.
fn parse_procs(s: &str) -> Result<usize, String> {
    match s.parse() {
        Ok(0) => fail("--procs must be at least 1"),
        Ok(p) => Ok(p),
        Err(_) => Err("invalid --procs".to_string()),
    }
}

fn parse_strategy(s: &str) -> AdditionStrategy {
    match s.to_ascii_lowercase().as_str() {
        "roundrobin" | "rr" => AdditionStrategy::RoundRobinPs,
        "cutedge" | "ce" => AdditionStrategy::CutEdgePs,
        "repartition" | "rs" => AdditionStrategy::RepartitionS,
        "restart" => AdditionStrategy::BaselineRestart,
        other => fail(&format!("unknown strategy {other:?}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(sub) = args.first() else {
        fail("missing subcommand")
    };
    let rest = &args[1..];

    let result = match sub.as_str() {
        "analyze" => run_analyze(rest),
        "stream" => run_stream(rest),
        "serve" => run_serve(rest),
        "partition" => run_partition(rest),
        "convert" => run_convert(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return;
        }
        other => fail(&format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    }
}

fn run_analyze(args: &[String]) -> Result<String, String> {
    let mut opts = AnalyzeOpts::default();
    let mut positional: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{what} needs a value")))
                .clone()
        };
        match a.as_str() {
            "--format" => opts.format = Some(Format::parse(&value("--format"))?),
            "--procs" => opts.procs = parse_procs(&value("--procs"))?,
            "--top" => opts.top = value("--top").parse().map_err(|_| "invalid --top")?,
            "--top-k" => {
                opts.top_k = Some(value("--top-k").parse().map_err(|_| "invalid --top-k")?)
            }
            "--strategy" => opts.strategy = parse_strategy(&value("--strategy")),
            "--stream" => opts.stream = Some(PathBuf::from(value("--stream"))),
            "--save-checkpoint" => {
                opts.save_checkpoint = Some(PathBuf::from(value("--save-checkpoint")))
            }
            "--resume" => opts.resume = Some(PathBuf::from(value("--resume"))),
            "--trace" => opts.trace = Some(PathBuf::from(value("--trace"))),
            "--metrics-out" => opts.metrics_out = Some(PathBuf::from(value("--metrics-out"))),
            "--progress-out" => opts.progress_out = Some(PathBuf::from(value("--progress-out"))),
            "--spans-out" => opts.spans_out = Some(PathBuf::from(value("--spans-out"))),
            "--backend" => opts.backend = value("--backend").parse()?,
            "--threads" => {
                opts.threads = value("--threads")
                    .parse()
                    .map_err(|_| "invalid --threads")?
            }
            other if !other.starts_with('-') => set_graph(&mut positional, other, "analyze"),
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    match positional {
        Some(p) => opts.input = p,
        None if opts.resume.is_some() => {}
        None => fail("analyze needs a graph file (or --resume)"),
    }
    analyze(&opts)
}

fn run_stream(args: &[String]) -> Result<String, String> {
    let mut opts = StreamOpts::default();
    let mut positional: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{what} needs a value")))
                .clone()
        };
        match a.as_str() {
            "--format" => opts.format = Some(Format::parse(&value("--format"))?),
            "--procs" => opts.procs = parse_procs(&value("--procs"))?,
            "--top" => opts.top = value("--top").parse().map_err(|_| "invalid --top")?,
            "--top-k" => {
                opts.top_k = Some(value("--top-k").parse().map_err(|_| "invalid --top-k")?)
            }
            "--strategy" => opts.strategy = parse_strategy(&value("--strategy")),
            "--batch" => opts.batch = value("--batch").parse().map_err(|_| "invalid --batch")?,
            "--queue-cap" => {
                opts.queue_cap = value("--queue-cap")
                    .parse()
                    .map_err(|_| "invalid --queue-cap")?
            }
            "--drain-policy" => opts.drain_policy = value("--drain-policy"),
            "--metrics-out" => opts.metrics_out = Some(PathBuf::from(value("--metrics-out"))),
            "--backend" => opts.backend = value("--backend").parse()?,
            "--threads" => {
                opts.threads = value("--threads")
                    .parse()
                    .map_err(|_| "invalid --threads")?
            }
            other if !other.starts_with('-') => positional.push(PathBuf::from(other)),
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    if positional.len() != 2 {
        fail("stream needs <graph> and <updates>");
    }
    opts.updates = positional.pop().unwrap_or_default();
    opts.input = positional.pop().unwrap_or_default();
    stream_serve(&opts)
}

fn run_serve(args: &[String]) -> Result<String, String> {
    let mut opts = ServeOpts::default();
    let mut positional: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{what} needs a value")))
                .clone()
        };
        match a.as_str() {
            "--format" => opts.format = Some(Format::parse(&value("--format"))?),
            "--procs" => opts.procs = parse_procs(&value("--procs"))?,
            "--top" => opts.top = value("--top").parse().map_err(|_| "invalid --top")?,
            "--turns" => opts.turns = value("--turns").parse().map_err(|_| "invalid --turns")?,
            "--offered" => {
                opts.offered = value("--offered")
                    .parse()
                    .map_err(|_| "invalid --offered")?
            }
            "--read-fraction" => {
                opts.read_fraction = value("--read-fraction")
                    .parse()
                    .map_err(|_| "invalid --read-fraction")?
            }
            "--topk-read-mix" => {
                opts.topk_read_mix = value("--topk-read-mix")
                    .parse()
                    .map_err(|_| "invalid --topk-read-mix")?
            }
            "--deadline-us" => {
                opts.deadline_us = value("--deadline-us")
                    .parse()
                    .map_err(|_| "invalid --deadline-us")?
            }
            "--seed" => opts.seed = value("--seed").parse().map_err(|_| "invalid --seed")?,
            "--metrics-out" => opts.metrics_out = Some(PathBuf::from(value("--metrics-out"))),
            "--data-dir" => opts.data_dir = Some(PathBuf::from(value("--data-dir"))),
            "--checkpoint-every" => {
                opts.checkpoint_every = value("--checkpoint-every")
                    .parse()
                    .map_err(|_| "invalid --checkpoint-every")?
            }
            "--verify-recovery" => opts.verify_recovery = true,
            "--backend" => opts.backend = value("--backend").parse()?,
            "--threads" => {
                opts.threads = value("--threads")
                    .parse()
                    .map_err(|_| "invalid --threads")?
            }
            other if !other.starts_with('-') => set_graph(&mut positional, other, "serve"),
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    opts.input = positional.unwrap_or_else(|| fail("serve needs a graph file"));
    serve_cmd(&opts)
}

fn run_partition(args: &[String]) -> Result<String, String> {
    let mut input: Option<PathBuf> = None;
    let mut format = None;
    let mut parts = 0usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{what} needs a value")))
                .clone()
        };
        match a.as_str() {
            "--parts" => parts = value("--parts").parse().map_err(|_| "invalid --parts")?,
            "--format" => format = Some(Format::parse(&value("--format"))?),
            other if !other.starts_with('-') => set_graph(&mut input, other, "partition"),
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    let input = input.unwrap_or_else(|| fail("partition needs a graph file"));
    if parts == 0 {
        fail("partition needs --parts K");
    }
    partition_report(&input, format, parts)
}

fn run_convert(args: &[String]) -> Result<String, String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut from = None;
    let mut to = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{what} needs a value")))
                .clone()
        };
        match a.as_str() {
            "--from" => from = Some(Format::parse(&value("--from"))?),
            "--to" => to = Some(Format::parse(&value("--to"))?),
            other if !other.starts_with('-') => paths.push(PathBuf::from(other)),
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    if paths.len() != 2 {
        fail("convert needs <in> and <out>");
    }
    convert(&paths[0], from, &paths[1], to)
}
