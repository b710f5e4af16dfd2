//! The shipped sample data must actually work: drives the CLI library against
//! `data/collaboration.txt` and `data/updates.stream` exactly as the README
//! suggests.

use aa_cli::commands::{analyze, partition_report, AnalyzeOpts};
use std::path::{Path, PathBuf};

fn data(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("data")
        .join(file)
}

#[test]
fn sample_analyze_with_stream() {
    let report = analyze(&AnalyzeOpts {
        input: data("collaboration.txt"),
        procs: 8,
        top: 5,
        stream: Some(data("updates.stream")),
        ..Default::default()
    })
    .expect("sample analysis must succeed");
    assert!(report.contains("120 vertices") || report.contains("121 vertices"));
    assert!(
        report.contains("added vertex 120"),
        "stream adds researcher 120"
    );
    assert!(report.contains("rebalanced:"));
    assert!(report.contains("top-5 closeness"));
}

#[test]
fn sample_partition_report() {
    let report = partition_report(&data("collaboration.txt"), None, 4).unwrap();
    assert!(report.contains("120 vertices"));
    // The sample has 4 planted communities: the multilevel partitioner must
    // find a far better cut than round-robin.
    let cut_of = |name: &str| -> usize {
        report
            .lines()
            .find(|l| l.starts_with(name))
            .unwrap_or_else(|| panic!("missing {name}"))
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap()
    };
    let ml = cut_of("multilevel-kway");
    let rr = cut_of("round-robin");
    assert!(
        3 * ml < rr,
        "multilevel ({ml}) should crush round-robin ({rr}) on community data"
    );
}

#[test]
fn sample_stream_parses_cleanly() {
    let text = std::fs::read_to_string(data("updates.stream")).unwrap();
    let cmds = aa_cli::stream::parse_stream(&text).unwrap();
    assert!(cmds.len() >= 9, "stream exercises the full command set");
}

/// Fuzz-style robustness table: malformed and boundary-condition stream files
/// must come back as clean `Err`s — never a panic, never silent acceptance.
#[test]
fn malformed_streams_fail_cleanly() {
    // (stream text, substring the error must contain)
    let parse_rejects: &[(&str, &str)] = &[
        ("ae", "missing"),                                // no arguments at all
        ("ae 0 1", "missing"),                            // missing weight
        ("ae 0 1 -3", "invalid"),                         // negative weight
        ("ae 0 1 99999999999999999999", "invalid"),       // weight overflows u32
        ("fail 99999999999999999999", "unknown command"), // fault injection is gone
        ("fail -1", "unknown command"),                   // whatever its arguments
        ("av ", "missing anchor"),                        // empty anchor list
        ("av 1,,2", "invalid anchor"),                    // hole in anchor list
        ("av 1;2", "invalid anchor"),                     // wrong separator
        ("snapshot five", "invalid"),                     // non-numeric k
        ("chaos 0.2", "line 1: unknown command"),         // so are lossy links,
        ("chaos 2.0 0.0", "unknown command"),             // whatever the rates
        ("step\nchaos 1.0 0.0", "line 2: unknown command"),
        ("explode 3", "unknown command"),          // unknown opcode
        ("ae 0 1 2 trailing garbage", "trailing"), // trailing garbage
        ("step\nstep\nae 0 1", "line 3"),          // errors name their line
    ];
    for (text, needle) in parse_rejects {
        let err =
            aa_cli::stream::parse_stream(text).expect_err(&format!("parse must reject {text:?}"));
        assert!(
            err.contains(needle),
            "error for {text:?} should mention {needle:?}, got: {err}"
        );
    }

    // Streams that parse but must fail at apply time — exercised through the
    // full `analyze` entry point so the error path is the one users hit.
    let apply_rejects: &[(&str, &str)] = &[
        ("fail 999999", "unknown command"), // rejected before anything applies
        ("ae 0 999999 1", "not alive"),     // out-of-range endpoint
        ("ae 0 1 0", "at least 1"),         // zero-weight edge
        ("cw 0 1 0", "at least 1"),         // zero-weight reweight
        ("ae 0 1 4294967295", "must be below"), // INF-weight edge
        ("de 424242 0", "not alive"),       // out-of-range delete
    ];
    let dir = std::env::temp_dir().join("aa_cli_fuzz_streams");
    std::fs::create_dir_all(&dir).unwrap();
    for (i, (text, needle)) in apply_rejects.iter().enumerate() {
        let stream = dir.join(format!("bad_{i}.stream"));
        std::fs::write(&stream, text).unwrap();
        let err = analyze(&AnalyzeOpts {
            input: data("collaboration.txt"),
            procs: 4,
            stream: Some(stream),
            ..Default::default()
        })
        .expect_err(&format!("analyze must reject stream {text:?}"));
        assert!(
            err.contains(needle) && err.contains("line 1"),
            "error for {text:?} should mention {needle:?} and the line, got: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
