//! Graph readers/writers: whitespace edge lists and Pajek `.net`.
//!
//! The paper generated its scale-free inputs with the Pajek tool, so the
//! Pajek format is supported for interoperability; edge lists cover everything
//! else (SNAP-style datasets, ad-hoc dumps).

use crate::graph::{Graph, VertexId, Weight, INF};
use std::io::{BufRead, Write};

/// Errors produced by the readers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed input with a line number and message.
    Parse { line: usize, msg: String },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, msg } => write!(f, "parse error on line {line}: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

fn parse<T: std::str::FromStr>(tok: &str, line: usize, what: &str) -> Result<T, IoError> {
    tok.parse().map_err(|_| IoError::Parse {
        line,
        msg: format!("invalid {what}: {tok:?}"),
    })
}

/// An integer edge weight: 0 and `INF` (which means "no path") are refused,
/// as the update stream refuses them.
fn parse_weight(tok: &str, line: usize) -> Result<Weight, IoError> {
    match parse(tok, line, "weight")? {
        0 | INF => Err(IoError::Parse {
            line,
            msg: format!("weight {tok} is outside 1..{INF}"),
        }),
        w => Ok(w),
    }
}

/// Unwraps the next whitespace token of a line, turning "token missing" into
/// a line-numbered parse error instead of a panic.
fn next_tok<'a, I: Iterator<Item = &'a str>>(
    toks: &mut I,
    line: usize,
    what: &str,
) -> Result<&'a str, IoError> {
    toks.next().ok_or_else(|| IoError::Parse {
        line,
        msg: format!("missing {what}"),
    })
}

/// Reads a whitespace edge list: one `u v [w]` triple per line, `#`-comments
/// allowed, 0-based ids, default weight 1. Vertices are created as needed.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<Graph, IoError> {
    let mut g = Graph::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = i + 1;
        let content = line.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut toks = content.split_whitespace();
        let u: VertexId = parse(
            next_tok(&mut toks, lineno, "source id")?,
            lineno,
            "source id",
        )?;
        let v: VertexId = parse(
            next_tok(&mut toks, lineno, "target id")?,
            lineno,
            "target id",
        )?;
        let w: Weight = match toks.next() {
            Some(t) => parse_weight(t, lineno)?,
            None => 1,
        };
        while g.capacity() <= u.max(v) as usize {
            g.add_vertex();
        }
        g.add_edge(u, v, w);
    }
    Ok(g)
}

/// Writes a whitespace edge list (`u v w` per line, 0-based ids).
pub fn write_edge_list<W: Write>(g: &Graph, mut writer: W) -> std::io::Result<()> {
    for (u, v, w) in g.edges() {
        writeln!(writer, "{u} {v} {w}")?;
    }
    Ok(())
}

/// Reads a Pajek `.net` file (`*Vertices n` then `*Edges` / `*Arcs` sections
/// with 1-based ids and optional weights, rounded and raised to at least 1).
/// Arcs are treated as undirected edges, matching the papers' undirected
/// experiments.
pub fn read_pajek<R: BufRead>(reader: R) -> Result<Graph, IoError> {
    let mut g = Graph::new();
    let mut in_edges = false;
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = i + 1;
        let content = line.trim();
        if content.is_empty() || content.starts_with('%') {
            continue;
        }
        let lower = content.to_ascii_lowercase();
        if lower.starts_with("*vertices") {
            let n: usize = parse(
                lower.split_whitespace().nth(1).ok_or(IoError::Parse {
                    line: lineno,
                    msg: "missing vertex count".into(),
                })?,
                lineno,
                "vertex count",
            )?;
            g = Graph::with_vertices(n);
            in_edges = false;
            continue;
        }
        if lower.starts_with("*edges") || lower.starts_with("*arcs") {
            in_edges = true;
            continue;
        }
        if lower.starts_with('*') || !in_edges {
            continue; // vertex labels / unknown sections
        }
        let mut toks = content.split_whitespace();
        let u: u32 = parse(
            next_tok(&mut toks, lineno, "source id")?,
            lineno,
            "source id",
        )?;
        let v: u32 = parse(
            next_tok(&mut toks, lineno, "target id")?,
            lineno,
            "target id",
        )?;
        if u == 0 || v == 0 {
            return Err(IoError::Parse {
                line: lineno,
                msg: "pajek ids are 1-based".into(),
            });
        }
        let n = g.capacity();
        if u.max(v) as usize > n {
            return Err(IoError::Parse {
                line: lineno,
                msg: format!("vertex id {} out of range: {n} vertices declared", u.max(v)),
            });
        }
        let w: Weight = match toks.next() {
            Some(t) => {
                let w = parse::<f64>(t, lineno, "weight")?.round();
                if !w.is_finite() || w >= f64::from(INF) {
                    return Err(IoError::Parse {
                        line: lineno,
                        msg: format!("weight {t} is outside 1..{INF}"),
                    });
                }
                w.max(1.0) as Weight
            }
            None => 1,
        };
        g.add_edge(u - 1, v - 1, w);
    }
    Ok(g)
}

/// Writes a Pajek `.net` file with 1-based ids.
pub fn write_pajek<W: Write>(g: &Graph, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "*Vertices {}", g.capacity())?;
    writeln!(writer, "*Edges")?;
    for (u, v, w) in g.edges() {
        writeln!(writer, "{} {} {}", u + 1, v + 1, w)?;
    }
    Ok(())
}

/// Reads a METIS `.graph` file: header `n m [fmt]`, then one line per vertex
/// listing its 1-based neighbours (`fmt` ending in 1 ⇒ `neighbour weight`
/// pairs). `%`-comment lines are skipped. `fmt` is at most three `0`/`1`
/// digits; the vertex-size and vertex-weight digits (`1xx`, `x1x`) are not
/// supported.
pub fn read_metis<R: BufRead>(reader: R) -> Result<Graph, IoError> {
    let mut g = Graph::new();
    let mut expected_edges = 0usize;
    let mut has_edge_weights = false;
    let mut vertex = 0u32;
    let mut header_seen = false;
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = i + 1;
        let content = line.trim();
        if content.starts_with('%') {
            continue;
        }
        if !header_seen {
            if content.is_empty() {
                continue;
            }
            header_seen = true;
            let mut toks = content.split_whitespace();
            let n: usize = parse(
                next_tok(&mut toks, lineno, "vertex count")?,
                lineno,
                "vertex count",
            )?;
            expected_edges = parse(
                next_tok(&mut toks, lineno, "edge count")?,
                lineno,
                "edge count",
            )?;
            if let Some(fmt) = toks.next() {
                has_edge_weights = metis_edge_weights(fmt, lineno)?;
            }
            g = Graph::with_vertices(n);
            continue;
        }
        if vertex as usize >= g.capacity() {
            if content.is_empty() {
                continue; // trailing blank lines
            }
            return Err(IoError::Parse {
                line: lineno,
                msg: "more adjacency lines than vertices".into(),
            });
        }
        let mut toks = content.split_whitespace();
        while let Some(t) = toks.next() {
            let nbr: u32 = parse(t, lineno, "neighbour id")?;
            if nbr == 0 || nbr as usize > g.capacity() {
                return Err(IoError::Parse {
                    line: lineno,
                    msg: format!("neighbour {nbr} out of range (ids are 1-based)"),
                });
            }
            let w: Weight = if has_edge_weights {
                parse_weight(next_tok(&mut toks, lineno, "edge weight")?, lineno)?
            } else {
                1
            };
            // Each undirected edge appears in both adjacency lines; insert once.
            if nbr - 1 > vertex {
                g.add_edge(vertex, nbr - 1, w);
            }
        }
        vertex += 1;
    }
    if g.edge_count() != expected_edges {
        return Err(IoError::Parse {
            line: 0,
            msg: format!(
                "header promised {expected_edges} edges, found {}",
                g.edge_count()
            ),
        });
    }
    Ok(g)
}

/// Decodes a METIS `fmt` field, whose digits are right-aligned flags for
/// vertex sizes, vertex weights and edge weights, into whether neighbours
/// carry edge weights.
fn metis_edge_weights(fmt: &str, line: usize) -> Result<bool, IoError> {
    let err = |why: &str| IoError::Parse {
        line,
        msg: format!("unsupported METIS fmt {fmt:?} ({why})"),
    };
    if fmt.len() > 3 || !fmt.bytes().all(|b| b == b'0' || b == b'1') {
        return Err(err("expected at most three 0/1 digits"));
    }
    match fmt.as_bytes().split_last() {
        Some((_, vertex)) if vertex.contains(&b'1') => Err(err("vertex sizes or weights")),
        last => Ok(matches!(last, Some((b'1', _)))),
    }
}

/// Writes a METIS `.graph` file (fmt `001`: edge weights, 1-based ids).
/// Tombstoned slots are emitted as isolated vertices to keep ids aligned.
pub fn write_metis<W: Write>(g: &Graph, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "{} {} 001", g.capacity(), g.edge_count())?;
    for v in 0..g.capacity() as VertexId {
        let mut first = true;
        if g.is_alive(v) {
            for &(u, w) in g.neighbors(v) {
                if !first {
                    write!(writer, " ")?;
                }
                write!(writer, "{} {}", u + 1, w)?;
                first = false;
            }
        }
        writeln!(writer)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use std::io::Cursor;

    #[test]
    fn edge_list_roundtrip() {
        let g = generators::barabasi_albert(50, 2, 7, 3);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(Cursor::new(buf)).unwrap();
        let mut eg: Vec<_> = g.edges().collect();
        let mut eh: Vec<_> = h.edges().collect();
        eg.sort_unstable();
        eh.sort_unstable();
        assert_eq!(eg, eh);
    }

    #[test]
    fn edge_list_comments_and_default_weight() {
        let input = "# header\n0 1\n1 2 5 # trailing\n\n";
        let g = read_edge_list(Cursor::new(input)).unwrap();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_weight(0, 1), Some(1));
        assert_eq!(g.edge_weight(1, 2), Some(5));
    }

    #[test]
    fn edge_list_bad_token_reports_line() {
        let err = read_edge_list(Cursor::new("0 1\n0 x\n")).unwrap_err();
        match err {
            IoError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn pajek_roundtrip() {
        let g = generators::erdos_renyi_gnm(30, 60, 4, 9);
        let mut buf = Vec::new();
        write_pajek(&g, &mut buf).unwrap();
        let h = read_pajek(Cursor::new(buf)).unwrap();
        assert_eq!(h.capacity(), 30);
        let mut eg: Vec<_> = g.edges().collect();
        let mut eh: Vec<_> = h.edges().collect();
        eg.sort_unstable();
        eh.sort_unstable();
        assert_eq!(eg, eh);
    }

    #[test]
    fn pajek_rejects_zero_based_ids() {
        let input = "*Vertices 2\n*Edges\n0 1\n";
        assert!(read_pajek(Cursor::new(input)).is_err());
    }

    #[test]
    fn pajek_arcs_become_undirected() {
        let input = "*Vertices 3\n*Arcs\n1 2 2.0\n2 3 1\n";
        let g = read_pajek(Cursor::new(input)).unwrap();
        assert!(g.has_edge(1, 0));
        assert_eq!(g.edge_weight(0, 1), Some(2));
    }

    #[test]
    fn metis_roundtrip() {
        let g = generators::watts_strogatz(40, 2, 0.2, 5, 7);
        let mut buf = Vec::new();
        write_metis(&g, &mut buf).unwrap();
        let h = read_metis(Cursor::new(buf)).unwrap();
        let mut eg: Vec<_> = g.edges().collect();
        let mut eh: Vec<_> = h.edges().collect();
        eg.sort_unstable();
        eh.sort_unstable();
        assert_eq!(eg, eh);
    }

    #[test]
    fn metis_unweighted_format() {
        let input = "% a comment\n3 2\n2 3\n1\n1\n";
        let g = read_metis(Cursor::new(input)).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(1));
        assert_eq!(g.edge_weight(0, 2), Some(1));
    }

    #[test]
    fn metis_edge_count_mismatch_rejected() {
        let input = "3 5\n2\n1\n\n";
        assert!(read_metis(Cursor::new(input)).is_err());
    }

    #[test]
    fn metis_zero_based_neighbor_rejected() {
        let input = "2 1\n0\n\n";
        let err = read_metis(Cursor::new(input)).unwrap_err();
        assert!(err.to_string().contains("1-based"));
    }

    /// The line a reader's error names, or a panic if it is not a parse error.
    fn parse_error_line(err: IoError) -> usize {
        match err {
            IoError::Parse { line, .. } => line,
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn pajek_id_past_the_vertex_count_is_an_error() {
        let err = read_pajek(Cursor::new("*Vertices 3\n*Edges\n1 5\n")).unwrap_err();
        assert_eq!(parse_error_line(err), 3);
    }

    #[test]
    fn pajek_edges_before_vertices_are_an_error() {
        let err = read_pajek(Cursor::new("% no header\n*Edges\n1 2\n")).unwrap_err();
        assert_eq!(parse_error_line(err), 3);
    }

    #[test]
    fn pajek_weight_that_rounds_to_inf_is_an_error() {
        for w in ["1e12", "inf", "NaN"] {
            let input = format!("*Vertices 2\n*Edges\n1 2 {w}\n");
            let err = read_pajek(Cursor::new(input)).unwrap_err();
            assert_eq!(parse_error_line(err), 3, "weight {w}");
        }
    }

    #[test]
    fn edge_list_weight_outside_one_to_inf_is_an_error() {
        for w in ["4294967295", "0"] {
            let input = format!("0 1 2\n1 2 {w}\n");
            let err = read_edge_list(Cursor::new(input)).unwrap_err();
            assert_eq!(parse_error_line(err), 2, "weight {w}");
        }
    }

    #[test]
    fn metis_fmt_with_a_multibyte_char_is_an_error() {
        let err = read_metis(Cursor::new("3 2 1é\n2 3\n1\n1\n")).unwrap_err();
        assert_eq!(parse_error_line(err), 1);
    }

    #[test]
    fn metis_vertex_weight_formats_are_an_error() {
        for fmt in ["010", "011", "10", "11", "100", "1111", "2"] {
            let input = format!("% header on line 2\n3 2 {fmt}\n2 3\n1\n1\n");
            let err = read_metis(Cursor::new(input)).unwrap_err();
            assert!(
                err.to_string().contains("unsupported METIS fmt"),
                "{fmt}: {err}"
            );
            assert_eq!(parse_error_line(err), 2, "fmt {fmt}");
        }
        for fmt in ["0", "1", "00", "01", "000", "001"] {
            let weights = if fmt.ends_with('1') {
                "2 4 3 4\n1 4\n1 4\n"
            } else {
                "2 3\n1\n1\n"
            };
            let g = read_metis(Cursor::new(format!("3 2 {fmt}\n{weights}"))).unwrap();
            assert_eq!(g.edge_count(), 2, "fmt {fmt}");
        }
    }

    #[test]
    fn metis_roundtrip_with_tombstones() {
        let mut g = generators::complete(5);
        g.remove_vertex(2);
        let mut buf = Vec::new();
        write_metis(&g, &mut buf).unwrap();
        let h = read_metis(Cursor::new(buf)).unwrap();
        assert_eq!(h.edge_count(), g.edge_count());
        assert_eq!(h.degree(2), 0, "tombstone becomes an isolated slot");
    }
}
