//! Engine checkpointing: save and restore the complete analysis state.
//!
//! A periodic checkpoint bounds the recomputation after the process dies —
//! the failure model this system handles, through `aa-durable`'s write-ahead
//! log and on-disk checkpoints (DESIGN §9, §14). The format is a small
//! self-contained little-endian binary layout (magic + version header)
//! holding the world graph, the partition and every distance-vector row.
//! Volatile state (which rank was sent which row, unsent logs, dirty sets)
//! is intentionally *not* saved: restore marks every row dirty and
//! downgrades all sends to full rows, which is always safe and costs one
//! re-exchange.
//!
//! Integrity: the header declares the body length, and the byte stream ends
//! in a CRC32 (IEEE) footer over the body (everything between the length
//! field and the footer). A short read is reported as a clean
//! [`io::ErrorKind::InvalidData`] error carrying the byte offset where the
//! stream ended and how many bytes the header promised; bit flips and other
//! corruption trip the checksum. Either way the restore path rejects the
//! blob instead of restoring a silently wrong analysis state.
//!
//! The framing helpers ([`write_framed`], [`read_framed`], [`crc32`]) are
//! public: the `aa-durable` crash-consistency layer (write-ahead log +
//! on-disk checkpoints) reuses the same envelope with its own magic/version
//! pairs.

use crate::config::EngineConfig;
use crate::dv::DistanceMatrix;
use crate::engine::AnytimeEngine;
use crate::proc_state::ProcState;
use aa_graph::{Graph, VertexId, Weight, INF};
use aa_partition::partition::UNASSIGNED;
use aa_partition::Partition;

use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"AACP";
const VERSION: u32 = 3;

/// CRC32 (IEEE 802.3, reflected polynomial) lookup table.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Standard CRC32 (the zlib/PNG/Ethernet checksum).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

pub(crate) fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

pub(crate) fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

pub(crate) fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Decodes the little-endian u32 at the start of `b`, surfacing short input
/// as a context-carrying `InvalidData` error instead of a panic (the restore
/// path must reject corruption, never abort on it).
pub(crate) fn le_u32(b: &[u8], what: &str) -> io::Result<u32> {
    let arr: [u8; 4] = b
        .get(..4)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| bad(&format!("checkpoint truncated inside {what}")))?;
    Ok(u32::from_le_bytes(arr))
}

/// Bytes of framing overhead around a body: magic (4), version (4),
/// declared body length (8), CRC32 footer (4).
pub const FRAME_OVERHEAD: usize = 20;

/// Frames `body` in the v3 checkpoint envelope: magic, version, declared
/// body length, body, CRC32 footer over the body. Shared by the
/// whole-engine checkpoint and the `aa-durable` on-disk checkpoint wrapper.
pub fn write_framed(magic: &[u8; 4], version: u32, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + FRAME_OVERHEAD);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out
}

/// Unframes a v3-envelope byte stream: checks magic and version, compares
/// the available bytes against the declared body length, verifies the CRC32
/// footer, and returns the body. A short read surfaces as a clean
/// `InvalidData` error naming the byte offset where the stream ended and
/// the length the header declared; bit flips trip the checksum; wrong
/// headers are named as such.
pub fn read_framed<'a>(bytes: &'a [u8], magic: &[u8; 4], version: u32) -> io::Result<&'a [u8]> {
    if bytes.len() < 16 {
        return Err(bad(&format!(
            "checkpoint truncated at byte {}: shorter than the 16-byte header",
            bytes.len()
        )));
    }
    if &bytes[..4] != magic {
        return Err(bad("not an anytime-anywhere checkpoint"));
    }
    if le_u32(&bytes[4..8], "the version header")? != version {
        return Err(bad("unsupported checkpoint version"));
    }
    let body_len = u64::from_le_bytes(
        bytes[8..16]
            .try_into()
            .map_err(|_| bad("checkpoint truncated inside the length header"))?,
    ) as usize;
    let need = body_len
        .checked_add(FRAME_OVERHEAD)
        .ok_or_else(|| bad("declared checkpoint body length overflows"))?;
    if bytes.len() < need {
        return Err(bad(&format!(
            "checkpoint truncated at byte {}: header declares {body_len} body bytes \
             ({need} total expected)",
            bytes.len()
        )));
    }
    if bytes.len() > need {
        return Err(bad(&format!(
            "checkpoint has {} trailing bytes after the declared frame",
            bytes.len() - need
        )));
    }
    let body = &bytes[16..16 + body_len];
    let stored = le_u32(&bytes[16 + body_len..], "the integrity footer")?;
    if crc32(body) != stored {
        return Err(bad("checkpoint integrity checksum mismatch"));
    }
    Ok(body)
}

impl AnytimeEngine {
    /// Writes a checkpoint of the current analysis state, terminated by a
    /// CRC32 integrity footer.
    pub fn save_checkpoint<W: Write>(&self, w: &mut W) -> io::Result<()> {
        assert!(self.initialized, "call initialize() first");
        // Buffer the body so the CRC32 footer can be computed over it.
        let mut body = Vec::new();
        let b = &mut body;
        write_u64(b, self.rc_steps_done as u64)?;
        write_u32(b, self.config.num_procs as u32)?;
        write_u32(b, u32::from(self.converged))?;
        write_u64(b, self.rr_cursor as u64)?;

        // World graph: capacity, alive flags, edges.
        let cap = self.world.capacity();
        write_u64(b, cap as u64)?;
        for v in 0..cap as VertexId {
            b.push(u8::from(self.world.is_alive(v)));
        }
        write_u64(b, self.world.edge_count() as u64)?;
        for (u, v, weight) in self.world.edges() {
            write_u32(b, u)?;
            write_u32(b, v)?;
            write_u32(b, weight)?;
        }

        // Partition assignment (u32::MAX sentinel for unassigned).
        for slot in &self.partition.assignment {
            write_u32(
                b,
                if *slot == UNASSIGNED {
                    u32::MAX
                } else {
                    *slot as u32
                },
            )?;
        }

        // Distance-vector rows, per processor.
        for ps in &self.procs {
            write_u64(b, ps.dv.row_count() as u64)?;
            for &v in ps.dv.vertices() {
                write_u32(b, v)?;
                let row = ps.dv.row(v);
                write_u64(b, row.len() as u64)?;
                row.iter().try_for_each(|d| write_u32(b, d))?;
            }
        }

        w.write_all(&write_framed(MAGIC, VERSION, &body))?;
        Ok(())
    }

    /// Restores an engine from a checkpoint. The LogP accounting starts
    /// fresh (the reader decides whether past cost matters); every row is
    /// marked dirty and all delta baselines are reset, so the first
    /// recombination steps re-exchange boundary state — always safe.
    pub fn restore_checkpoint<R: Read>(r: &mut R, config: EngineConfig) -> io::Result<Self> {
        // Buffer the stream and validate the whole envelope (magic, version,
        // declared length, CRC32 footer) before trusting any of it: short
        // reads surface with the byte offset they ended at, bit flips trip
        // the checksum — both as clean InvalidData errors.
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        let body = read_framed(&bytes, MAGIC, VERSION)?;
        let r = &mut &body[..];
        let rc_steps = read_u64(r)? as usize;
        let procs = read_u32(r)? as usize;
        if procs != config.num_procs {
            return Err(bad("processor count differs from the checkpointed run"));
        }
        let converged = read_u32(r)? != 0;
        let rr_cursor = read_u64(r)? as usize;

        // World graph.
        let cap = read_u64(r)? as usize;
        // Each vertex has one alive byte, so a capacity past the bytes left
        // is forged; refusing it here bounds every `cap`-sized allocation.
        if cap > r.len() {
            return Err(bad("vertex count exceeds the checkpoint body"));
        }
        let mut alive = vec![false; cap];
        for flag in alive.iter_mut() {
            let mut b = [0u8; 1];
            r.read_exact(&mut b)?;
            *flag = b[0] != 0;
        }
        let mut world = Graph::with_vertices(cap);
        let edges = read_u64(r)? as usize;
        for _ in 0..edges {
            let u = read_u32(r)?;
            let v = read_u32(r)?;
            let weight = read_u32(r)?;
            if u as usize >= cap || v as usize >= cap {
                return Err(bad("edge endpoint out of range"));
            }
            if weight == INF {
                return Err(bad("edge weight is not finite"));
            }
            world.add_edge(u, v, weight);
        }
        for (v, &a) in alive.iter().enumerate() {
            if !a {
                world.remove_vertex(v as VertexId);
            }
        }

        // Partition.
        let mut partition = Partition::unassigned(cap, procs);
        for slot in partition.assignment.iter_mut() {
            let raw = read_u32(r)?;
            *slot = if raw == u32::MAX {
                UNASSIGNED
            } else {
                raw as usize
            };
        }
        partition
            .validate(&world)
            .map_err(|e| bad(&format!("invalid partition: {e}")))?;

        // The rows of every processor, still as bytes: the narrowest width
        // that holds the largest finite entry holds them all.
        fn entries(bytes: &[u8]) -> impl Iterator<Item = Weight> + '_ {
            let chunks = bytes.chunks_exact(4);
            chunks.map(|d| d.try_into().map_or(INF, Weight::from_le_bytes))
        }
        let mut blobs = Vec::with_capacity(procs);
        let mut seen = vec![false; cap];
        let mut largest = 0;
        for rank in 0..procs {
            let rows = read_u64(r)? as usize;
            let mut blob = Vec::with_capacity(rows.min(cap));
            for _ in 0..rows {
                let v = read_u32(r)?;
                if partition.part_of(v) != Some(rank) {
                    return Err(bad("row owned by the wrong processor"));
                }
                if std::mem::replace(&mut seen[v as usize], true) {
                    return Err(bad("row listed twice"));
                }
                let len = read_u64(r)? as usize;
                if len > cap {
                    return Err(bad("row longer than the graph"));
                }
                let (bytes, rest) = r
                    .split_at_checked(4 * len)
                    .ok_or_else(|| bad("row past the body"))?;
                *r = rest;
                let finite = entries(bytes).filter(|&d| d != INF);
                largest = finite.fold(largest, Weight::max);
                blob.push((v, bytes));
            }
            blobs.push(blob);
        }
        if !r.is_empty() {
            return Err(bad("checkpoint has trailing bytes"));
        }
        let mut states = Vec::with_capacity(procs);
        for (rank, blob) in blobs.into_iter().enumerate() {
            let mut ps = ProcState::new(rank, cap);
            ps.dv = DistanceMatrix::holding(cap, largest);
            ps.rebuild_view(&world, &partition);
            for (v, bytes) in blob {
                ps.dv.insert_row(v, entries(bytes).collect::<Vec<Weight>>());
                ps.dirty.insert(v);
            }
            if converged {
                // Only an empty frontier votes "converged", so these rows
                // were saved with empty logs, and the view they are put back
                // into is rebuilt from the world and partition saved beside
                // them: the propagation invariant holds on every column.
                ps.dv.clear_logs();
            }
            states.push(ps);
        }

        let cluster = crate::engine::build_cluster(&config);
        let engine = AnytimeEngine {
            world,
            partition,
            procs: states,
            cluster,
            config,
            rc_steps_done: rc_steps,
            converged,
            exact: false,
            initialized: true,
            rr_cursor,
            invalidation_epoch: 0,
            obs: crate::obs::EngineObs::default(),
        };
        engine
            .check_invariants()
            .map_err(|e| bad(&format!("inconsistent checkpoint: {e}")))?;
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::{Endpoint, VertexBatch};
    use crate::strategy::AdditionStrategy;
    use aa_graph::{algo, generators};

    fn engine(n: usize, p: usize, seed: u64) -> AnytimeEngine {
        let g = generators::barabasi_albert(n, 2, 2, seed);
        let mut e = AnytimeEngine::new(
            g,
            EngineConfig {
                num_procs: p,
                seed,
                ..Default::default()
            },
        );
        e.initialize();
        e
    }

    #[test]
    fn roundtrip_preserves_distances() {
        let mut e = engine(70, 4, 3);
        e.run_to_convergence(64);
        let mut buf = Vec::new();
        e.save_checkpoint(&mut buf).unwrap();
        let restored =
            AnytimeEngine::restore_checkpoint(&mut buf.as_slice(), e.config().clone()).unwrap();
        assert_eq!(restored.distances_dense(), e.distances_dense());
        assert_eq!(restored.rc_steps(), e.rc_steps());
        assert_eq!(restored.partition().assignment, e.partition().assignment);
    }

    #[test]
    fn restored_engine_continues_with_dynamic_updates() {
        let mut e = engine(60, 4, 5);
        e.run_to_convergence(64);
        let mut buf = Vec::new();
        e.save_checkpoint(&mut buf).unwrap();
        let mut restored =
            AnytimeEngine::restore_checkpoint(&mut buf.as_slice(), e.config().clone()).unwrap();
        let mut batch = VertexBatch::new(2);
        batch.connect(0, Endpoint::Existing(7), 1);
        batch.connect(1, Endpoint::New(0), 2);
        restored.add_vertices(&batch, AdditionStrategy::CutEdgePs);
        restored.delete_edge(0, 1);
        restored.run_to_convergence(96);
        assert!(restored.is_converged());
        let dense = restored.distances_dense();
        let oracle = algo::apsp_dijkstra(restored.graph());
        for v in restored.graph().vertices() {
            assert_eq!(dense[v as usize], oracle[v as usize]);
        }
    }

    #[test]
    fn mid_run_checkpoint_resumes_and_converges() {
        let mut e = engine(60, 4, 7);
        e.rc_step(); // partial state only
        let mut buf = Vec::new();
        e.save_checkpoint(&mut buf).unwrap();
        let mut restored =
            AnytimeEngine::restore_checkpoint(&mut buf.as_slice(), e.config().clone()).unwrap();
        restored.run_to_convergence(64);
        let dense = restored.distances_dense();
        let oracle = algo::apsp_dijkstra(restored.graph());
        for v in restored.graph().vertices() {
            assert_eq!(dense[v as usize], oracle[v as usize]);
        }
    }

    /// An engine widened by a heavy edge whose weight then came back down,
    /// saved before it reconverged: restore sizes the rows from the largest
    /// distance the checkpoint holds, so they come back 32 bits wide, and
    /// the stale entry past 16 bits relaxes to the exact distance. Saved
    /// again once exact, they come back 8 bits wide.
    #[test]
    fn a_wide_engine_saved_back_under_the_bound_restores_narrow_and_exact() {
        // A ring of 24 with a pendant vertex behind a bridge.
        let mut g = generators::path(24);
        g.add_edge(0, 23, 1);
        let pendant = g.add_vertex();
        g.add_edge(5, pendant, 2);
        let config = EngineConfig {
            num_procs: 3,
            ..Default::default()
        };
        let mut e = AnytimeEngine::new(g, config.clone());
        e.initialize();
        e.run_to_convergence(256);
        assert!(e.change_edge_weight(5, pendant, 1_000_000));
        e.run_to_convergence(256);
        assert!(e.change_edge_weight(5, pendant, 2));
        assert!(!e.is_converged() && e.procs.iter().all(|ps| ps.dv.bits() == 32));
        // Lowering the bridge relaxes every entry it shortens at once, so a
        // raw write stands in for a row that has not caught up yet: its
        // distance to the pendant still runs over the heavy bridge.
        let ps = &mut e.procs[0];
        let x = *ps.dv.vertices().iter().find(|&&x| x != pendant).unwrap();
        let via_heavy = ps.dv.row(x).get(5).unwrap() + 1_000_000;
        ps.dv.set_entry(x, pendant as usize, via_heavy);
        assert_eq!(e.distances_dense()[x as usize][pendant as usize], via_heavy);
        let mut buf = Vec::new();
        e.save_checkpoint(&mut buf).unwrap();
        let restore = |buf: &[u8]| AnytimeEngine::restore_checkpoint(&mut &buf[..], config.clone());
        let mut restored = restore(&buf).unwrap();
        assert!(restored.procs.iter().all(|ps| ps.dv.bits() == 32));
        restored.run_to_convergence(256);
        assert!(restored.is_converged());
        let dense = restored.distances_dense();
        let oracle = algo::apsp_dijkstra(restored.graph());
        for v in restored.graph().vertices() {
            assert_eq!(dense[v as usize], oracle[v as usize], "row {v}");
        }
        buf.clear();
        restored.save_checkpoint(&mut buf).unwrap();
        let narrow = restore(&buf).unwrap();
        assert!(narrow.procs.iter().all(|ps| ps.dv.bits() == 8));
        assert_eq!(narrow.distances_dense(), dense);
    }

    #[test]
    fn checkpoint_with_tombstones_roundtrips() {
        let mut e = engine(50, 3, 9);
        e.run_to_convergence(64);
        e.delete_vertex(10);
        e.run_to_convergence(64);
        let mut buf = Vec::new();
        e.save_checkpoint(&mut buf).unwrap();
        let restored =
            AnytimeEngine::restore_checkpoint(&mut buf.as_slice(), e.config().clone()).unwrap();
        assert!(!restored.graph().is_alive(10));
        assert_eq!(restored.distances_dense(), e.distances_dense());
    }

    #[test]
    fn garbage_and_mismatches_rejected() {
        let e = {
            let mut e = engine(20, 2, 11);
            e.run_to_convergence(32);
            e
        };
        let mut buf = Vec::new();
        e.save_checkpoint(&mut buf).unwrap();

        // Wrong magic.
        let mut junk = buf.clone();
        junk[0] = b'X';
        assert!(
            AnytimeEngine::restore_checkpoint(&mut junk.as_slice(), e.config().clone()).is_err()
        );
        // Wrong processor count.
        let bad_config = EngineConfig {
            num_procs: 5,
            ..e.config().clone()
        };
        assert!(AnytimeEngine::restore_checkpoint(&mut buf.as_slice(), bad_config).is_err());
        // Truncated stream.
        let truncated = &buf[..buf.len() / 2];
        assert!(
            AnytimeEngine::restore_checkpoint(&mut &truncated[..], e.config().clone()).is_err()
        );
    }

    #[test]
    fn truncated_mid_frame_reports_byte_offset() {
        // The short-read regression: a checkpoint cut mid-frame must
        // round-trip to a clean InvalidData error that names the byte
        // offset where the stream ended and the declared body length — not
        // a generic io error or a misleading checksum complaint.
        let e = {
            let mut e = engine(40, 3, 17);
            e.run_to_convergence(48);
            e
        };
        let mut buf = Vec::new();
        e.save_checkpoint(&mut buf).unwrap();
        let body_len = buf.len() - FRAME_OVERHEAD;
        for keep in [16, 17, buf.len() / 4, buf.len() / 2, buf.len() - 1] {
            let err = AnytimeEngine::restore_checkpoint(&mut &buf[..keep], e.config().clone())
                .map(|_| ())
                .unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "cut at {keep}: {err}"
            );
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("truncated at byte {keep}")),
                "cut at {keep}: error must carry the byte offset, got {msg:?}"
            );
            assert!(
                msg.contains(&format!("{body_len} body bytes")),
                "cut at {keep}: error must carry the declared length, got {msg:?}"
            );
        }
        // The same cuts through the shared framing helper (aa-durable's
        // checkpoint wrapper rides on it).
        let framed = write_framed(b"AATT", 1, b"some body bytes");
        let err = read_framed(&framed[..framed.len() - 3], b"AATT", 1)
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("truncated at byte"));
        assert!(read_framed(&framed, b"AATT", 1).is_ok());
    }

    #[test]
    fn crc32_known_answer() {
        // The standard check value for CRC32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn corruption_is_rejected_with_invalid_data() {
        let e = {
            let mut e = engine(30, 3, 13);
            e.run_to_convergence(32);
            e
        };
        let mut buf = Vec::new();
        e.save_checkpoint(&mut buf).unwrap();

        // A bit flip anywhere in the body trips the checksum (the body
        // starts at byte 16, after magic + version + declared length).
        for pos in [17, buf.len() / 2, buf.len() - 5] {
            let mut bad_buf = buf.clone();
            bad_buf[pos] ^= 0x40;
            let err =
                AnytimeEngine::restore_checkpoint(&mut bad_buf.as_slice(), e.config().clone())
                    .map(|_| ())
                    .unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "flip at {pos}: {err}"
            );
            assert!(err.to_string().contains("checksum"), "flip at {pos}: {err}");
        }
        // A corrupted footer is itself caught.
        let mut bad_footer = buf.clone();
        *bad_footer.last_mut().unwrap() ^= 0x01;
        let err = AnytimeEngine::restore_checkpoint(&mut bad_footer.as_slice(), e.config().clone())
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("checksum"));
        // Wrong version (byte 4 is the low byte of the version field).
        let mut bad_version = buf.clone();
        bad_version[4] = 99;
        let err =
            AnytimeEngine::restore_checkpoint(&mut bad_version.as_slice(), e.config().clone())
                .map(|_| ())
                .unwrap_err();
        assert!(err.to_string().contains("version"));
        // Truncations at every kind of boundary give clean errors, never
        // panics or silent acceptance.
        for keep in [0, 3, 4, 7, 8, 11, 15, 16, buf.len() / 3, buf.len() - 1] {
            let err = AnytimeEngine::restore_checkpoint(&mut &buf[..keep], e.config().clone())
                .map(|_| ())
                .unwrap_err();
            assert!(
                err.kind() == io::ErrorKind::InvalidData
                    || err.kind() == io::ErrorKind::UnexpectedEof,
                "truncation at {keep}: {err}"
            );
        }
        // Trailing garbage lands in the CRC window and is rejected too.
        let mut padded = buf.clone();
        padded.extend_from_slice(b"garbage");
        assert!(
            AnytimeEngine::restore_checkpoint(&mut padded.as_slice(), e.config().clone()).is_err()
        );
        // A valid frame around a body whose vertex count (bytes 24..32)
        // reads 2^40 is refused before anything is sized from it.
        let mut forged = read_framed(&buf, MAGIC, VERSION).unwrap().to_vec();
        forged[24..32].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let forged = write_framed(MAGIC, VERSION, &forged);
        let err = AnytimeEngine::restore_checkpoint(&mut forged.as_slice(), e.config().clone())
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("vertex count"), "{err}");
        // Bodies that frame and checksum cleanly but say what no engine
        // writes: an infinite edge weight, and a row listed twice by its
        // rank.
        let body = read_framed(&buf, MAGIC, VERSION).unwrap();
        let at = |pos: usize| u64::from_le_bytes(body[pos..pos + 8].try_into().unwrap()) as usize;
        let cap = at(24);
        let edges = 32 + cap + 8;
        let rows = edges + 12 * at(edges - 8) + 4 * cap;
        let first = rows + 8;
        let second = first + 12 + 4 * at(first + 4);
        assert!(at(rows) >= 2);
        let forgeries: [(usize, u32, &str); 2] = [
            (edges + 8, INF, "not finite"),
            (second, e.procs[0].dv.vertices()[0], "listed twice"),
        ];
        for (pos, value, says) in forgeries {
            let mut forged = body.to_vec();
            forged[pos..pos + 4].copy_from_slice(&value.to_le_bytes());
            let forged = write_framed(MAGIC, VERSION, &forged);
            let err = AnytimeEngine::restore_checkpoint(&mut forged.as_slice(), e.config().clone())
                .map(|_| ())
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains(says), "{err}");
        }
        // The pristine buffer still restores.
        assert!(AnytimeEngine::restore_checkpoint(&mut buf.as_slice(), e.config().clone()).is_ok());
    }
}
