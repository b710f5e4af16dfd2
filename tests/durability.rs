//! Crash-consistency integration tests: the kill-and-restart differential
//! sweep the durability layer's acceptance criteria name, plus targeted
//! media-corruption recovery and property tests on the WAL encoding.
//!
//! The differential invariant under test, at **every** kill point:
//!
//! * no acknowledged update is lost — an op whose WAL sequence was covered
//!   by a reported group commit is present after recovery;
//! * no unacknowledged update is applied — ops logged but never committed
//!   (or aborted by a failed commit) never surface in the recovered engine.
//!
//! Both directions follow from one equality: the live server's engine holds
//! exactly the committed ops (aborted ops are removed before the barrier
//! flush, unflushed ops never reach it), so the recovered engine must agree
//! with it bit-for-bit at convergence.

use aa_core::{AnytimeEngine, EngineConfig};
use aa_durable::{
    decode_record, encode_commit, encode_record, recover, scan_segment, DurabilityConfig,
    SimStorage, Storage, StorageFaultPlan, StorageFaults, WalRecord,
};
use aa_graph::{generators, INF};
use aa_ingest::UpdateOp;
use aa_serve::{ClientOp, LoadGen, ServeConfig, Server, WorkloadConfig, WriteOutcome};
use proptest::prelude::*;

const N: usize = 60;
const PROCS: usize = 3;

/// The engine both the server and recovery start from; recovery's base must
/// be built identically or the differential is meaningless.
fn fresh_engine() -> AnytimeEngine {
    let g = generators::barabasi_albert(N, 2, 1, 7);
    AnytimeEngine::new(
        g,
        EngineConfig {
            num_procs: PROCS,
            ..Default::default()
        },
    )
}

/// A durable server over `sim`, checkpointing every 3 turns so a multi-turn
/// run exercises checkpoint + WAL-suffix recovery, not just replay.
fn durable_server(sim: &SimStorage) -> Server {
    let durability = DurabilityConfig {
        checkpoint_every_turns: 3,
    };
    let (s, _) = Server::open_durable(
        Box::new(sim.clone()),
        fresh_engine(),
        ServeConfig::default(),
        durability,
    )
    .unwrap();
    s
}

fn workload(seed: u64) -> LoadGen {
    LoadGen::new(WorkloadConfig {
        seed,
        offered_per_turn: 12,
        read_fraction: 0.4,
        top_k: 4,
        topk_read_mix: 0.5,
    })
}

fn assert_closeness_equal(live: &mut AnytimeEngine, recovered: &mut AnytimeEngine, ctx: &str) {
    live.run_to_convergence(100_000);
    recovered.run_to_convergence(100_000);
    let want = live.snapshot().closeness.clone();
    let got = recovered.snapshot().closeness.clone();
    assert_eq!(want.len(), got.len(), "{ctx}: vertex count diverged");
    for (i, (a, b)) in want.iter().zip(got.iter()).enumerate() {
        assert!(
            (a - b).abs() < 1e-9,
            "{ctx}: vertex {i}: live {a} vs recovered {b}"
        );
    }
}

/// Runs the same seeded workload against a durable server, killing after
/// each turn count in `1..=turns`, and checks the differential invariant at
/// every kill point. `faults` seeds the storage fault schedule (torn tails,
/// failed fsyncs/renames) so commits fail and tails tear mid-sweep.
fn kill_sweep(faults: StorageFaults, fault_seed: u64, turns: usize) {
    for kill_after in 1..=turns {
        let sim = SimStorage::with_faults(StorageFaultPlan::new(fault_seed, faults));
        let mut s = durable_server(&sim);
        let mut gen = workload(0xD17A);
        let mut committed = 0u64;
        for _ in 0..kill_after {
            gen.offer(&mut s);
            let rep = s.turn().expect("serve turn");
            if let Some(seq) = rep.durable_seq {
                committed = seq;
            }
        }
        // Logged-but-never-committed stragglers: buffered in memory at kill
        // time, they must not resurface after recovery.
        for op in gen.turn_ops(s.engine()) {
            if let ClientOp::Write(w) = op {
                s.submit_write(w);
            }
        }
        sim.kill();
        let mut st = sim.clone();
        let rec = recover(&mut st, fresh_engine(), s.config().ingest)
            .unwrap_or_else(|e| panic!("kill@{kill_after}: recovery failed: {e}"));
        assert!(
            rec.next_seq > committed,
            "kill@{kill_after}: next seq {} must pass committed {committed}",
            rec.next_seq
        );
        let mut recovered = rec.engine;
        assert_closeness_equal(
            s.engine_mut(),
            &mut recovered,
            &format!("kill@{kill_after} (faults seed {fault_seed})"),
        );
    }
}

/// Fault-free storage: every kill point recovers to exactly the acked state.
#[test]
fn kill_restart_differential_clean_storage() {
    kill_sweep(StorageFaults::none(), 0, 8);
}

/// Seeded write-side faults (torn tails, failed fsyncs and renames): failed
/// commits abort their ops and burn sequence numbers, kills tear pending
/// bytes — recovery must still land on exactly the acked state.
#[test]
fn kill_restart_differential_torn_writes() {
    kill_sweep(StorageFaults::write_side(0.35), 11, 8);
}

/// Every fsync fails: nothing is ever acked, every logged op is aborted, and
/// recovery must come up with the untouched base state.
#[test]
fn kill_restart_differential_total_fsync_failure() {
    kill_sweep(
        StorageFaults {
            p_fail_fsync: 1.0,
            ..StorageFaults::none()
        },
        23,
        3,
    );
}

/// A flipped bit in the newest checkpoint quarantines it; recovery falls
/// back to the older retained checkpoint plus a longer WAL replay — and the
/// result is still exactly the acked state, because compaction only deletes
/// segments covered by the **oldest** retained checkpoint.
#[test]
fn corrupt_newest_checkpoint_falls_back_to_wal_replay() {
    let sim = SimStorage::new();
    let mut s = durable_server(&sim);
    let mut gen = workload(0xFA11);
    for _ in 0..8 {
        gen.offer(&mut s);
        s.turn().expect("serve turn");
    }
    sim.kill();
    let names = Storage::list(&sim.clone()).unwrap();
    let ckpts: Vec<&String> = names.iter().filter(|n| n.ends_with(".aadc")).collect();
    assert!(
        ckpts.len() >= 2,
        "need a fallback checkpoint, got {ckpts:?}"
    );
    let newest = ckpts.iter().max().copied().cloned().unwrap();
    let len = sim.durable_len(&newest).unwrap();
    assert!(sim.flip_durable_bit(&newest, (len / 2) * 8 + 1));
    let mut st = sim.clone();
    let rec = recover(&mut st, fresh_engine(), s.config().ingest)
        .expect("fallback recovery must succeed");
    assert_eq!(
        rec.report.checkpoints_quarantined, 1,
        "the flipped checkpoint must be quarantined: {:?}",
        rec.report.notes
    );
    assert!(rec.report.used_checkpoint, "older checkpoint must load");
    let mut recovered = rec.engine;
    assert_closeness_equal(s.engine_mut(), &mut recovered, "corrupt newest checkpoint");
}

/// A truncated WAL tail (media corruption cutting into the last committed
/// batch) is quarantined, never a panic: recovery still comes up, reports
/// the damage, and serves from what survived.
#[test]
fn truncated_wal_tail_is_quarantined_never_fatal() {
    let sim = SimStorage::new();
    let mut s = durable_server(&sim);
    let mut gen = workload(0xBEEF);
    for _ in 0..4 {
        gen.offer(&mut s);
        s.turn().expect("serve turn");
    }
    sim.kill();
    let names = Storage::list(&sim.clone()).unwrap();
    let newest_seg = names
        .iter()
        .filter(|n| n.ends_with(".aawl"))
        .max()
        .cloned()
        .expect("at least one WAL segment");
    let len = sim.durable_len(&newest_seg).unwrap();
    if len > 3 {
        assert!(sim.truncate_durable(&newest_seg, len - 3));
    }
    let mut st = sim.clone();
    let rec = recover(&mut st, fresh_engine(), s.config().ingest)
        .expect("truncation must degrade, not fail");
    // The cut lands mid-frame: either inside the final commit marker
    // (records demoted to an uncommitted tail) or inside a record
    // (quarantined region). Both are reported, neither is fatal.
    assert!(
        rec.report.frames_quarantined > 0
            || rec.report.records_uncommitted > 0
            || rec.report.bytes_quarantined > 0,
        "damage must be visible in the report: {:?}",
        rec.report
    );
    let mut recovered = rec.engine;
    recovered.run_to_convergence(100_000);
}

/// A weight of `INF` (the "no path" sentinel, which no edge may carry) is
/// refused at push, before the WAL sees it. Logged, it would panic the next
/// turn's flush and every later replay, so the data dir could never reopen.
#[test]
fn infinite_weight_write_is_refused_before_the_log() {
    let sim = SimStorage::new();
    let mut s = durable_server(&sim);
    let (u, v, _) = s.engine().graph().edges().next().expect("an edge");
    let last = (N - 1) as u32;
    for op in [
        UpdateOp::AddEdge(0, last, INF),
        UpdateOp::Reweight(u, v, INF),
        UpdateOp::AddVertex {
            anchors: vec![(0, 1), (1, INF)],
        },
    ] {
        match s.submit_write(op.clone()) {
            WriteOutcome::Rejected(e) => assert!(e.contains("must be below"), "{op:?}: {e}"),
            other => panic!("{op:?} must be rejected, got {other:?}"),
        }
    }
    assert_eq!(
        s.stats().writes_logged,
        0,
        "a refused write is never logged"
    );
    // A valid write beside them still logs, commits and replays.
    let logged = s.submit_write(UpdateOp::AddEdge(0, last, 3));
    assert!(matches!(logged, WriteOutcome::Logged { .. }), "{logged:?}");
    let rep = s.turn().expect("the turn after a refused write");
    assert!(rep.durable_seq.is_some());
    sim.kill();
    let mut st = sim.clone();
    let rec = recover(&mut st, fresh_engine(), s.config().ingest)
        .expect("recovery after a refused write");
    assert_eq!(rec.report.records_replayed, 1, "{:?}", rec.report);
    let mut recovered = rec.engine;
    assert_closeness_equal(s.engine_mut(), &mut recovered, "refused INF write");
}

// ---------------------------------------------------------------------------
// Property tests on the WAL encoding itself.
// ---------------------------------------------------------------------------

/// Strategy: an arbitrary `UpdateOp` across all five variants.
fn arb_op() -> impl Strategy<Value = UpdateOp> {
    (
        0u8..5,
        0u32..500,
        0u32..500,
        1u32..64,
        proptest::collection::vec((0u32..500, 1u32..64), 0..6),
    )
        .prop_map(|(tag, u, v, w, anchors)| match tag {
            0 => UpdateOp::AddEdge(u, v, w),
            1 => UpdateOp::DeleteEdge(u, v),
            2 => UpdateOp::Reweight(u, v, w),
            3 => UpdateOp::AddVertex { anchors },
            _ => UpdateOp::DeleteVertex(u),
        })
}

/// Builds a well-formed segment image: header, `committed` op records
/// followed by one commit marker, then `uncommitted` trailing op records.
fn build_segment(
    first_seq: u64,
    committed: &[UpdateOp],
    uncommitted: &[UpdateOp],
) -> (Vec<u8>, Vec<(u64, UpdateOp)>) {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"AAWL");
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&first_seq.to_le_bytes());
    let mut expect = Vec::new();
    let mut seq = first_seq;
    for op in committed {
        bytes.extend_from_slice(&encode_record(seq, op));
        expect.push((seq, op.clone()));
        seq += 1;
    }
    if !committed.is_empty() {
        bytes.extend_from_slice(&encode_commit(seq - 1));
    }
    for op in uncommitted {
        bytes.extend_from_slice(&encode_record(seq, op));
        seq += 1;
    }
    (bytes, expect)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every op record round-trips exactly through the frame codec, and the
    /// decoder consumes precisely the bytes the encoder produced.
    #[test]
    fn wal_record_round_trips(seq in 1u64..1 << 48, op in arb_op()) {
        let bytes = encode_record(seq, &op);
        let (rec, used) = decode_record(&bytes).expect("fresh record must decode");
        prop_assert_eq!(used, bytes.len());
        match rec {
            WalRecord::Op(s, o) => {
                prop_assert_eq!(s, seq);
                prop_assert_eq!(o, op);
            }
            other => prop_assert!(false, "decoded wrong kind: {:?}", other),
        }
    }

    /// Scanning a segment truncated at an arbitrary byte never panics, and
    /// whatever it yields is a prefix of the committed records — a torn tail
    /// can lose acknowledged-at-the-margin records (the crash model's
    /// permitted loss is bounded by the lost commit marker) but can never
    /// invent, reorder, or resurrect uncommitted ones.
    #[test]
    fn torn_segment_scan_yields_committed_prefix(
        first in 1u64..1000,
        committed in proptest::collection::vec(arb_op(), 0..6),
        uncommitted in proptest::collection::vec(arb_op(), 0..3),
        cut in 0usize..4096,
    ) {
        let (bytes, expect) = build_segment(first, &committed, &uncommitted);
        let cut = cut.min(bytes.len());
        match scan_segment(&bytes[..cut]) {
            Err(_) => prop_assert!(cut < 16, "only a truncated header may fail the scan"),
            Ok(scan) => {
                prop_assert!(scan.records.len() <= expect.len());
                for (got, want) in scan.records.iter().zip(expect.iter()) {
                    prop_assert_eq!(got, want);
                }
            }
        }
    }

    /// A single flipped bit anywhere past the header is caught by the CRC
    /// (or the length/monotonicity guards): the scan never panics and never
    /// yields a record that was not written.
    #[test]
    fn bit_flip_never_forges_a_record(
        first in 1u64..1000,
        committed in proptest::collection::vec(arb_op(), 1..6),
        uncommitted in proptest::collection::vec(arb_op(), 0..3),
        bit in 0usize..32768,
    ) {
        let (mut bytes, expect) = build_segment(first, &committed, &uncommitted);
        let bit = 16 * 8 + bit % ((bytes.len() - 16) * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        if let Ok(scan) = scan_segment(&bytes) {
            for got in &scan.records {
                prop_assert!(
                    expect.contains(got),
                    "scan forged record {:?} after flipping bit {}",
                    got,
                    bit
                );
            }
        }
    }
}
