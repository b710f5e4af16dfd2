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
use aa_runtime::BackendKind;
use std::path::PathBuf;
use std::process::exit;
use std::str::FromStr;

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

/// Walks a subcommand's arguments in order. A flag goes to `flag(name,
/// value)`, which takes the flag's value from `value` if it has one and
/// answers whether it knows the flag; a bare argument goes to `bare`. An
/// unknown flag or a missing value is a usage error.
fn walk(
    args: &[String],
    mut flag: impl FnMut(&str, &mut dyn FnMut(&str) -> String) -> Result<bool, String>,
    mut bare: impl FnMut(&str),
) -> Result<(), String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{what} needs a value")))
                .clone()
        };
        if !a.starts_with('-') {
            bare(a);
        } else if !flag(a, &mut value)? {
            fail(&format!("unknown flag {a:?}"));
        }
    }
    Ok(())
}

/// `flag`'s value from `value`, parsed; one that does not parse is an error.
fn parsed<T: FromStr>(flag: &str, value: &mut dyn FnMut(&str) -> String) -> Result<T, String> {
    value(flag).parse().map_err(|_| format!("invalid {flag}"))
}

/// The flags analyze, stream and serve share, each the field of one
/// command's options it sets; `None` where the command refuses the flag.
struct Shared<'a> {
    format: &'a mut Option<Format>,
    procs: &'a mut usize,
    top: &'a mut usize,
    top_k: Option<&'a mut Option<usize>>,
    strategy: Option<&'a mut AdditionStrategy>,
    metrics_out: &'a mut Option<PathBuf>,
    backend: &'a mut BackendKind,
    threads: &'a mut usize,
}

/// The [`Shared`] fields of `$opts`, with `top_k` and `strategy` as given.
macro_rules! shared {
    ($opts:ident, $top_k:expr, $strategy:expr) => {
        Shared {
            format: &mut $opts.format,
            procs: &mut $opts.procs,
            top: &mut $opts.top,
            top_k: $top_k,
            strategy: $strategy,
            metrics_out: &mut $opts.metrics_out,
            backend: &mut $opts.backend,
            threads: &mut $opts.threads,
        }
    };
}

impl Shared<'_> {
    /// Sets `flag`'s field from `value`, or answers `false` if the command
    /// takes no such shared flag.
    fn set(&mut self, flag: &str, value: &mut dyn FnMut(&str) -> String) -> Result<bool, String> {
        match (flag, &mut self.top_k, &mut self.strategy) {
            ("--format", ..) => *self.format = Some(Format::parse(&value(flag))?),
            ("--procs", ..) => *self.procs = parse_procs(&value(flag))?,
            ("--top", ..) => *self.top = parsed(flag, value)?,
            ("--top-k", Some(top_k), _) => **top_k = Some(parsed(flag, value)?),
            ("--strategy", _, Some(strategy)) => **strategy = parse_strategy(&value(flag)),
            ("--metrics-out", ..) => *self.metrics_out = Some(PathBuf::from(value(flag))),
            ("--backend", ..) => *self.backend = value(flag).parse()?,
            ("--threads", ..) => *self.threads = parsed(flag, value)?,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

fn run_analyze(args: &[String]) -> Result<String, String> {
    let mut opts = AnalyzeOpts::default();
    let mut shared = shared!(opts, Some(&mut opts.top_k), Some(&mut opts.strategy));
    let mut positional: Option<PathBuf> = None;
    let own = |flag: &str, value: &mut dyn FnMut(&str) -> String| {
        let slot = match flag {
            "--stream" => &mut opts.stream,
            "--save-checkpoint" => &mut opts.save_checkpoint,
            "--resume" => &mut opts.resume,
            "--trace" => &mut opts.trace,
            "--progress-out" => &mut opts.progress_out,
            "--spans-out" => &mut opts.spans_out,
            _ => return shared.set(flag, value),
        };
        *slot = Some(PathBuf::from(value(flag)));
        Ok(true)
    };
    walk(args, own, |a| set_graph(&mut positional, a, "analyze"))?;
    match positional {
        Some(p) => opts.input = p,
        None if opts.resume.is_some() => {}
        None => fail("analyze needs a graph file (or --resume)"),
    }
    analyze(&opts)
}

fn run_stream(args: &[String]) -> Result<String, String> {
    let mut opts = StreamOpts::default();
    let mut shared = shared!(opts, Some(&mut opts.top_k), Some(&mut opts.strategy));
    let mut positional: Vec<PathBuf> = Vec::new();
    let own = |flag: &str, value: &mut dyn FnMut(&str) -> String| {
        match flag {
            "--batch" => opts.batch = parsed(flag, value)?,
            "--queue-cap" => opts.queue_cap = parsed(flag, value)?,
            "--drain-policy" => opts.drain_policy = value(flag),
            _ => return shared.set(flag, value),
        }
        Ok(true)
    };
    walk(args, own, |a| positional.push(PathBuf::from(a)))?;
    if positional.len() != 2 {
        fail("stream needs <graph> and <updates>");
    }
    opts.updates = positional.pop().unwrap_or_default();
    opts.input = positional.pop().unwrap_or_default();
    stream_serve(&opts)
}

fn run_serve(args: &[String]) -> Result<String, String> {
    let mut opts = ServeOpts::default();
    let mut shared = shared!(opts, None, None);
    let mut positional: Option<PathBuf> = None;
    let own = |flag: &str, value: &mut dyn FnMut(&str) -> String| {
        match flag {
            "--turns" => opts.turns = parsed(flag, value)?,
            "--offered" => opts.offered = parsed(flag, value)?,
            "--read-fraction" => opts.read_fraction = parsed(flag, value)?,
            "--topk-read-mix" => opts.topk_read_mix = parsed(flag, value)?,
            "--seed" => opts.seed = parsed(flag, value)?,
            "--data-dir" => opts.data_dir = Some(PathBuf::from(value(flag))),
            "--checkpoint-every" => opts.checkpoint_every = parsed(flag, value)?,
            "--verify-recovery" => opts.verify_recovery = true,
            _ => return shared.set(flag, value),
        }
        Ok(true)
    };
    walk(args, own, |a| set_graph(&mut positional, a, "serve"))?;
    opts.input = positional.unwrap_or_else(|| fail("serve needs a graph file"));
    serve_cmd(&opts)
}

fn run_partition(args: &[String]) -> Result<String, String> {
    let (mut input, mut format, mut parts) = (None, None, 0usize);
    let own = |flag: &str, value: &mut dyn FnMut(&str) -> String| {
        match flag {
            "--parts" => parts = parsed(flag, value)?,
            "--format" => format = Some(Format::parse(&value(flag))?),
            _ => return Ok(false),
        }
        Ok(true)
    };
    walk(args, own, |a| set_graph(&mut input, a, "partition"))?;
    let input = input.unwrap_or_else(|| fail("partition needs a graph file"));
    if parts == 0 {
        fail("partition needs --parts K");
    }
    partition_report(&input, format, parts)
}

fn run_convert(args: &[String]) -> Result<String, String> {
    let (mut paths, mut from, mut to) = (Vec::new(), None, None);
    let own = |flag: &str, value: &mut dyn FnMut(&str) -> String| {
        match flag {
            "--from" => from = Some(Format::parse(&value(flag))?),
            "--to" => to = Some(Format::parse(&value(flag))?),
            _ => return Ok(false),
        }
        Ok(true)
    };
    walk(args, own, |a| paths.push(PathBuf::from(a)))?;
    if paths.len() != 2 {
        fail("convert needs <in> and <out>");
    }
    convert(&paths[0], from, &paths[1], to)
}
