//! Graph I/O: edge-list and METIS file formats.
//!
//! Real deployments of DGCL load graphs from disk; this module supports
//! the two formats the paper's datasets ship in — whitespace-separated
//! edge lists (SNAP style, `#` comments) and the METIS adjacency format —
//! so users can run the library on their own data.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};

use crate::{CsrGraph, GraphBuilder, VertexId};

/// Errors arising while reading a graph file.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file content is malformed.
    Parse {
        /// 1-based line number of the problem.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Most edges a METIS header may pre-reserve. The header's edge count is
/// unchecked input: past this, the edge list grows only as adjacency
/// lines actually arrive, so a lying header cannot drive an allocation
/// the file does not back.
const METIS_RESERVE_CAP: usize = 1 << 16;

fn parse_error(line: usize, message: impl Into<String>) -> IoError {
    IoError::Parse {
        line,
        message: message.into(),
    }
}

/// Reads a whitespace-separated edge list (`src dst` per line, `#`
/// comments, SNAP style) into a symmetric CSR graph. Vertex ids are used
/// as-is; the vertex count is `max id + 1`.
///
/// # Errors
///
/// Returns [`IoError`] on I/O failures or malformed lines.
pub fn read_edge_list<R: Read>(reader: R) -> Result<CsrGraph, IoError> {
    let reader = BufReader::new(reader);
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut max_id: VertexId = 0;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let src: VertexId = parts
            .next()
            .ok_or_else(|| parse_error(idx + 1, "missing source id"))?
            .parse()
            .map_err(|e| parse_error(idx + 1, format!("bad source id: {e}")))?;
        let dst: VertexId = parts
            .next()
            .ok_or_else(|| parse_error(idx + 1, "missing destination id"))?
            .parse()
            .map_err(|e| parse_error(idx + 1, format!("bad destination id: {e}")))?;
        max_id = max_id.max(src).max(dst);
        edges.push((src, dst));
    }
    let mut b = GraphBuilder::with_capacity(max_id as usize + 1, edges.len());
    for (s, d) in edges {
        if s != d {
            b.add_edge(s, d);
        }
    }
    Ok(b.build_symmetric())
}

/// Writes a graph as an edge list (one `src dst` line per directed edge).
///
/// # Errors
///
/// Returns [`IoError`] on I/O failures.
pub fn write_edge_list<W: Write>(graph: &CsrGraph, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for (s, d) in graph.edges() {
        writeln!(w, "{s} {d}")?;
    }
    w.flush()?;
    Ok(())
}

/// Reads the METIS adjacency format: a header `n m [fmt]` followed by one
/// line per vertex listing its (1-based) neighbours. Only the unweighted
/// format (`fmt` 0 or absent) is supported.
///
/// # Errors
///
/// Returns [`IoError`] on I/O failures, malformed content, weighted
/// formats, or counts that overflow (more vertices than 32-bit ids can
/// name, or an edge count whose directed double overflows `usize`).
pub fn read_metis<R: Read>(reader: R) -> Result<CsrGraph, IoError> {
    let reader = BufReader::new(reader);
    let mut lines = reader.lines().enumerate();
    let (header_idx, header) = loop {
        match lines.next() {
            Some((idx, line)) => {
                let line = line?;
                let t = line.trim().to_string();
                if !t.is_empty() && !t.starts_with('%') {
                    break (idx, t);
                }
            }
            None => return Err(parse_error(1, "empty file")),
        }
    };
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() < 2 {
        return Err(parse_error(header_idx + 1, "header needs `n m`"));
    }
    let n: usize = fields[0]
        .parse()
        .map_err(|e| parse_error(header_idx + 1, format!("bad vertex count: {e}")))?;
    let m: usize = fields[1]
        .parse()
        .map_err(|e| parse_error(header_idx + 1, format!("bad edge count: {e}")))?;
    if fields.len() > 2 && fields[2] != "0" && fields[2] != "00" && fields[2] != "000" {
        return Err(parse_error(
            header_idx + 1,
            "weighted METIS formats are not supported",
        ));
    }
    if n > VertexId::MAX as usize + 1 {
        return Err(parse_error(
            header_idx + 1,
            format!("vertex count {n} exceeds the 32-bit vertex id range"),
        ));
    }
    let directed = m.checked_mul(2).ok_or_else(|| {
        parse_error(
            header_idx + 1,
            format!("edge count {m} overflows when doubled"),
        )
    })?;
    let mut b = GraphBuilder::with_capacity(n, directed.min(METIS_RESERVE_CAP));
    let mut vertex: usize = 0;
    for (idx, line) in lines {
        let line = line?;
        let t = line.trim();
        if t.starts_with('%') {
            continue;
        }
        if vertex >= n {
            if t.is_empty() {
                continue;
            }
            return Err(parse_error(idx + 1, "more adjacency lines than vertices"));
        }
        for tok in t.split_whitespace() {
            let neighbor: usize = tok
                .parse()
                .map_err(|e| parse_error(idx + 1, format!("bad neighbour id: {e}")))?;
            if neighbor == 0 || neighbor > n {
                return Err(parse_error(
                    idx + 1,
                    format!("neighbour {neighbor} out of range 1..={n}"),
                ));
            }
            b.add_edge(vertex as VertexId, (neighbor - 1) as VertexId);
        }
        vertex += 1;
    }
    if vertex != n {
        return Err(parse_error(
            0,
            format!("expected {n} adjacency lines, found {vertex}"),
        ));
    }
    Ok(b.build_symmetric())
}

/// Writes a graph in the METIS adjacency format (unweighted).
///
/// # Errors
///
/// Returns [`IoError`] on I/O failures or if the graph is not symmetric
/// (METIS files describe undirected graphs).
pub fn write_metis<W: Write>(graph: &CsrGraph, writer: W) -> Result<(), IoError> {
    if !graph.is_symmetric() {
        return Err(parse_error(0, "METIS format requires a symmetric graph"));
    }
    let mut w = BufWriter::new(writer);
    writeln!(w, "{} {}", graph.num_vertices(), graph.num_edges() / 2)?;
    for v in 0..graph.num_vertices() as VertexId {
        let line: Vec<String> = graph
            .neighbors(v)
            .iter()
            .map(|&u| (u + 1).to_string())
            .collect();
        writeln!(w, "{}", line.join(" "))?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_list_round_trip() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        let g = b.build_symmetric();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).expect("write");
        let back = read_edge_list(&buf[..]).expect("read");
        assert_eq!(back, g);
    }

    #[test]
    fn edge_list_skips_comments_and_blank_lines() {
        let text = "# a comment\n\n0 1\n1 2\n";
        let g = read_edge_list(text.as_bytes()).expect("read");
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn edge_list_reports_bad_lines() {
        let text = "0 1\nnot numbers\n";
        let err = read_edge_list(text.as_bytes()).expect_err("must fail");
        match err {
            IoError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn metis_round_trip() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        b.add_edge(3, 0);
        let g = b.build_symmetric();
        let mut buf = Vec::new();
        write_metis(&g, &mut buf).expect("write");
        let back = read_metis(&buf[..]).expect("read");
        assert_eq!(back, g);
    }

    #[test]
    fn metis_parses_reference_example() {
        // 3-vertex triangle in METIS format.
        let text = "3 3\n2 3\n1 3\n1 2\n";
        let g = read_metis(text.as_bytes()).expect("read");
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 6);
        assert!(g.has_edge(0, 2));
    }

    #[test]
    fn metis_rejects_out_of_range_neighbor() {
        let text = "2 1\n2\n3\n";
        assert!(read_metis(text.as_bytes()).is_err());
    }

    #[test]
    fn metis_rejects_weighted_format() {
        let text = "2 1 011\n2 5\n1 5\n";
        assert!(read_metis(text.as_bytes()).is_err());
    }

    /// A small symmetric graph with multi-digit ids, so truncation cuts
    /// through tokens as well as between them.
    fn sample_graph() -> CsrGraph {
        let mut b = GraphBuilder::new(14);
        for v in 0..14u32 {
            b.add_edge(v, (v + 1) % 14);
            b.add_edge(v, (v * 5 + 3) % 14);
        }
        b.build_symmetric()
    }

    #[test]
    fn metis_huge_count_fields_do_not_drive_allocation() {
        // The header alone used to size the edge list: a two-line file
        // claiming 10^12 edges reserved 16 TB and aborted, and an edge
        // count near `usize::MAX` overflowed `2 * m`.
        let g = read_metis("1 1000000000000\n\n".as_bytes()).expect("header lies, body is fine");
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.num_edges(), 0);
        assert!(matches!(
            read_metis("1 18446744073709551615\n\n".as_bytes()),
            Err(IoError::Parse { line: 1, .. })
        ));
        // Counts past `usize` or the 32-bit id range are typed errors.
        for header in ["1 18446744073709551616\n\n", "4294967297 0\n"] {
            assert!(
                matches!(read_metis(header.as_bytes()), Err(IoError::Parse { .. })),
                "{header:?}"
            );
        }
    }

    #[test]
    fn metis_truncation_at_every_length_is_ok_or_an_error() {
        // Any prefix of a valid file must parse or fail with a typed
        // error, never panic.
        let g = sample_graph();
        let mut bytes = Vec::new();
        write_metis(&g, &mut bytes).expect("write");
        for cut in 0..bytes.len() {
            if let Ok(prefix) = read_metis(&bytes[..cut]) {
                assert_eq!(prefix.num_vertices(), g.num_vertices(), "cut {cut}");
            }
        }
        assert_eq!(read_metis(&bytes[..]).expect("full file"), g);
    }

    #[test]
    fn edge_list_truncation_at_every_length_is_ok_or_an_error() {
        let g = sample_graph();
        let mut bytes = Vec::new();
        write_edge_list(&g, &mut bytes).expect("write");
        for cut in 0..bytes.len() {
            if let Ok(prefix) = read_edge_list(&bytes[..cut]) {
                assert!(prefix.num_vertices() <= g.num_vertices(), "cut {cut}");
            }
        }
        assert_eq!(read_edge_list(&bytes[..]).expect("full file"), g);
    }

    #[test]
    fn metis_write_rejects_directed_graphs() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        let g = b.build_directed();
        assert!(write_metis(&g, Vec::new()).is_err());
    }
}
