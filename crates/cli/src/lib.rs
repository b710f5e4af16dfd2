//! Library backing the `aa` command-line tool: argument parsing, graph file
//! loading in three formats, and the dynamic-update stream language.
//!
//! The update stream is a plain-text file, one command per line
//! (`#`-comments allowed):
//!
//! ```text
//! ae  u v w        # add edge
//! de  u v          # delete edge
//! cw  u v w        # change edge weight
//! dv  v            # delete vertex
//! av  a1,a2,...    # add one vertex with unit edges to existing anchors
//! step             # run one recombination step
//! converge         # run recombination to convergence
//! rebalance        # migrate rows to rebalance load
//! snapshot k       # print the current top-k closeness ranking
//! ```
//!
//! Tokens may be double-quoted (`ae "0" 5 2`); inside quotes `#` and
//! whitespace are literal. Streams replay through the shared ingest path
//! ([`stream::apply_batch`]): `aa analyze --stream` flushes every command
//! for per-op semantics, while `aa stream` coalesces and batches updates
//! under a drain policy with bounded-queue backpressure (see `aa-ingest`).

#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod commands;
pub mod stream;

use aa_graph::{io as gio, Graph};
use std::fs::File;
use std::io::BufReader;
use std::path::Path;

/// Supported graph file formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Whitespace `u v [w]` edge list, 0-based.
    EdgeList,
    /// Pajek `.net`.
    Pajek,
    /// METIS `.graph`.
    Metis,
}

impl Format {
    /// Parses a format name.
    pub fn parse(name: &str) -> Result<Format, String> {
        match name.to_ascii_lowercase().as_str() {
            "edgelist" | "edges" | "txt" => Ok(Format::EdgeList),
            "pajek" | "net" => Ok(Format::Pajek),
            "metis" | "graph" => Ok(Format::Metis),
            other => Err(format!("unknown format {other:?} (edgelist|pajek|metis)")),
        }
    }

    /// Guesses from a file extension, defaulting to the edge list.
    pub fn from_path(path: &Path) -> Format {
        match path.extension().and_then(|e| e.to_str()) {
            Some("net") => Format::Pajek,
            Some("graph") | Some("metis") => Format::Metis,
            _ => Format::EdgeList,
        }
    }
}

/// Loads a graph file in the given (or guessed) format.
pub fn load_graph(path: &Path, format: Option<Format>) -> Result<Graph, String> {
    let format = format.unwrap_or_else(|| Format::from_path(path));
    let file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let reader = BufReader::new(file);
    let result = match format {
        Format::EdgeList => gio::read_edge_list(reader),
        Format::Pajek => gio::read_pajek(reader),
        Format::Metis => gio::read_metis(reader),
    };
    result.map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// Writes a graph file in the given format. The write is atomic
/// (write→fsync→rename via `aa-durable`): an interrupted save leaves the
/// previous file intact instead of a truncated graph that silently parses
/// as a smaller one.
pub fn save_graph(g: &Graph, path: &Path, format: Option<Format>) -> Result<(), String> {
    let format = format.unwrap_or_else(|| Format::from_path(path));
    let mut buf: Vec<u8> = Vec::new();
    let result = match format {
        Format::EdgeList => gio::write_edge_list(g, &mut buf),
        Format::Pajek => gio::write_pajek(g, &mut buf),
        Format::Metis => gio::write_metis(g, &mut buf),
    };
    result.map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    aa_durable::atomic_write_file(path, &buf)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_parsing() {
        assert_eq!(Format::parse("pajek").unwrap(), Format::Pajek);
        assert_eq!(Format::parse("METIS").unwrap(), Format::Metis);
        assert_eq!(Format::parse("edgelist").unwrap(), Format::EdgeList);
        assert!(Format::parse("gml").is_err());
    }

    #[test]
    fn format_guessing() {
        assert_eq!(Format::from_path(Path::new("a.net")), Format::Pajek);
        assert_eq!(Format::from_path(Path::new("a.graph")), Format::Metis);
        assert_eq!(Format::from_path(Path::new("a.txt")), Format::EdgeList);
        assert_eq!(Format::from_path(Path::new("noext")), Format::EdgeList);
    }

    #[test]
    fn load_save_roundtrip() {
        let g = aa_graph::generators::barabasi_albert(30, 2, 3, 1);
        let dir = std::env::temp_dir().join("aa_cli_test_roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, fmt) in [
            ("g.txt", Format::EdgeList),
            ("g.net", Format::Pajek),
            ("g.graph", Format::Metis),
        ] {
            let path = dir.join(name);
            save_graph(&g, &path, Some(fmt)).unwrap();
            let h = load_graph(&path, None).unwrap();
            assert_eq!(h.edge_count(), g.edge_count(), "{name}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let err = load_graph(Path::new("/definitely/not/here.txt"), None).unwrap_err();
        assert!(err.contains("cannot open"));
    }
}
