//! Usage errors: each exits 2 with the usage text, never a panic or a silent
//! pick. Every `aa` subcommand takes a fixed number of positional paths (one
//! too many is refused), a run needs at least one processor, and an unknown
//! flag is refused rather than ignored.

use std::process::Command;

const GRAPH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../data/collaboration.txt");

fn aa(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_aa"))
        .args(args)
        .output()
        .expect("the aa binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_second_graph_path_is_a_usage_error() {
    for sub in ["analyze", "serve", "partition"] {
        let (code, stderr) = aa(&[sub, GRAPH, "no-such-file.txt", "--parts", "4"]);
        assert_eq!(code, Some(2), "{sub}: {stderr}");
        assert!(
            stderr.contains(&format!("{sub} takes one graph file, got a second")),
            "{sub}: {stderr}"
        );
        assert!(stderr.contains("usage:"), "{sub}: {stderr}");
        // Two real files are refused the same way, not analysed as the last.
        let (code, _) = aa(&[sub, GRAPH, GRAPH, "--parts", "4"]);
        assert_eq!(code, Some(2), "{sub} with two real files");
    }
}

#[test]
fn stream_and_convert_reject_a_wrong_path_count() {
    for (sub, msg) in [
        ("stream", "stream needs <graph> and <updates>"),
        ("convert", "convert needs <in> and <out>"),
    ] {
        let (code, stderr) = aa(&[sub, GRAPH, GRAPH, GRAPH]);
        assert_eq!(code, Some(2), "{sub}: {stderr}");
        assert!(stderr.contains(msg), "{sub}: {stderr}");
    }
}

#[test]
fn one_graph_path_still_runs() {
    let (code, stderr) = aa(&["partition", GRAPH, "--parts", "4"]);
    assert_eq!(code, Some(0), "{stderr}");
}

#[test]
fn zero_procs_is_a_usage_error() {
    for args in [
        &["analyze", GRAPH, "--procs", "0"][..],
        &["stream", GRAPH, GRAPH, "--procs", "0"],
        &["serve", GRAPH, "--procs", "0"],
    ] {
        let (code, stderr) = aa(args);
        assert_eq!(code, Some(2), "{}: {stderr}", args[0]);
        assert!(
            stderr.contains("--procs must be at least 1"),
            "{}: {stderr}",
            args[0]
        );
        assert!(stderr.contains("usage:"), "{}: {stderr}", args[0]);
    }
}

#[test]
fn the_removed_measure_flag_is_refused() {
    let (code, stderr) = aa(&["analyze", GRAPH, "--measure", "pagerank"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag"), "{stderr}");
}
