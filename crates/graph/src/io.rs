//! METIS/Chaco graph-file format support.
//!
//! The de-facto exchange format for graph partitioners (METIS manual §4.5):
//! a header `nvtx nedges [fmt [ncon]]`, then one line per vertex listing
//! `[size] [w1 .. wncon] (neighbour weight?)*` with 1-based vertex ids.
//! Reading and writing this format makes the workspace's partitioner a
//! drop-in tool for graphs produced by other packages, and lets its output
//! be checked against METIS/Scotch on identical inputs.

use crate::{CsrGraph, GraphBuilder, Weight};

/// Errors produced by [`parse_metis_graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetisParseError {
    /// The header line is missing or malformed.
    BadHeader(String),
    /// A vertex line could not be parsed.
    BadLine {
        /// 1-based line number in the file.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// The edge count in the header does not match the body.
    EdgeCountMismatch {
        /// Edges promised by the header.
        declared: usize,
        /// Edges found in the body.
        found: usize,
    },
}

impl std::fmt::Display for MetisParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetisParseError::BadHeader(s) => write!(f, "bad header: {s}"),
            MetisParseError::BadLine { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            MetisParseError::EdgeCountMismatch { declared, found } => {
                write!(f, "header declares {declared} edges, body has {found}")
            }
        }
    }
}

impl std::error::Error for MetisParseError {}

/// Parses a graph in METIS format. Supports the `fmt` flags `0xx` (vertex
/// sizes are not supported), i.e. `fmt ∈ {0, 1, 10, 11}`: edge weights
/// and/or vertex weights, plus multi-constraint `ncon`.
pub fn parse_metis_graph(text: &str) -> Result<CsrGraph, MetisParseError> {
    // `%` comment lines are skipped everywhere. Blank lines are skipped only
    // ahead of the header: after it a blank line is an isolated vertex.
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.starts_with('%'));
    let (_, header) = lines
        .find(|(_, l)| !l.is_empty())
        .ok_or_else(|| MetisParseError::BadHeader("empty file".into()))?;
    let head: Vec<&str> = header.split_whitespace().collect();
    if head.len() < 2 || head.len() > 4 {
        return Err(MetisParseError::BadHeader(header.into()));
    }
    let parse_usize = |s: &str| -> Result<usize, MetisParseError> {
        s.parse()
            .map_err(|_| MetisParseError::BadHeader(format!("not a number: {s}")))
    };
    let nvtx = parse_usize(head[0])?;
    let nedges = parse_usize(head[1])?;
    let fmt = if head.len() >= 3 { head[2] } else { "0" };
    let (has_vwgt, has_ewgt) = match fmt {
        "0" | "00" | "000" => (false, false),
        "1" | "01" | "001" => (false, true),
        "10" | "010" => (true, false),
        "11" | "011" => (true, true),
        other => {
            return Err(MetisParseError::BadHeader(format!(
                "unsupported fmt {other} (vertex sizes not supported)"
            )))
        }
    };
    let ncon = if head.len() == 4 {
        parse_usize(head[3])?.max(1)
    } else {
        1
    };
    // As METIS does: `ncon` describes weights the body must then carry.
    if ncon > 1 && !has_vwgt {
        return Err(MetisParseError::BadHeader(format!(
            "ncon {ncon} but fmt {fmt} has no vertex weights"
        )));
    }
    // The header sizes the builder's allocations, so hold it to what the
    // text can contain first: a line per vertex, a token per weight, and
    // vertex ids that fit the graph's `u32`.
    let body_lines = lines.clone().count();
    if nvtx > body_lines || u32::try_from(nvtx).is_err() {
        return Err(MetisParseError::BadHeader(format!(
            "{nvtx} vertices declared, {body_lines} lines follow"
        )));
    }
    if nvtx.checked_mul(ncon).is_none_or(|n| n > text.len()) {
        return Err(MetisParseError::BadHeader(format!(
            "{nvtx} x {ncon} vertex weights declared in a {}-byte file",
            text.len()
        )));
    }

    let mut builder = GraphBuilder::new(nvtx, ncon);
    let mut found_edges = 0usize;
    let mut v = 0u32;
    for (line_no, line) in lines {
        if (v as usize) >= nvtx {
            if line.is_empty() {
                continue;
            }
            return Err(MetisParseError::BadLine {
                line: line_no,
                reason: "more vertex lines than the header declares".into(),
            });
        }
        let bad = |reason: String| MetisParseError::BadLine {
            line: line_no,
            reason,
        };
        let mut tokens = line.split_whitespace().map(|t| {
            t.parse::<u64>()
                .map_err(|_| bad(format!("not a number: {t}")))
        });
        let weight = |x: u64| {
            Weight::try_from(x).map_err(|_| bad(format!("weight {x} exceeds {}", Weight::MAX)))
        };
        if has_vwgt {
            let mut w = Vec::with_capacity(ncon);
            for _ in 0..ncon {
                let x = tokens
                    .next()
                    .ok_or_else(|| bad("missing vertex weights".into()))??;
                w.push(weight(x)?);
            }
            builder.set_vertex_weights(v, &w);
        }
        while let Some(u) = tokens.next() {
            let u = u?;
            if u == 0 || u as usize > nvtx {
                return Err(bad(format!("neighbour {u} out of range (ids are 1-based)")));
            }
            let u = (u - 1) as u32;
            if u == v {
                return Err(bad(format!("self-loop on vertex {}", u + 1)));
            }
            let w = if has_ewgt {
                weight(
                    tokens
                        .next()
                        .ok_or_else(|| bad("missing edge weight".into()))??,
                )?
            } else {
                1
            };
            found_edges += 1;
            // Each undirected edge appears in both endpoint lines; add it
            // once, from the lower endpoint.
            if u > v {
                builder.add_edge(v, u, w);
            }
        }
        v += 1;
    }
    if found_edges != 2 * nedges {
        return Err(MetisParseError::EdgeCountMismatch {
            declared: nedges,
            found: found_edges / 2,
        });
    }
    Ok(builder.build())
}

/// Serialises a graph to METIS format (always writes vertex and edge
/// weights: `fmt = 11`, plus `ncon`).
pub fn to_metis_graph(graph: &CsrGraph) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} {} 011 {}\n",
        graph.nvtx(),
        graph.nedges(),
        graph.ncon()
    ));
    for v in 0..graph.nvtx() as u32 {
        let mut line = String::new();
        for w in graph.vertex_weights(v) {
            line.push_str(&format!("{w} "));
        }
        for (u, w) in graph.neighbors(v).zip(graph.edge_weights(v)) {
            line.push_str(&format!("{} {} ", u + 1, w));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Serialises a partition vector in METIS `.part` format (one part id per
/// line).
pub fn to_metis_partition(part: &[crate::PartId]) -> String {
    let mut out = String::with_capacity(part.len() * 3);
    for &p in part {
        out.push_str(&format!("{p}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::grid_graph;

    #[test]
    fn parse_minimal() {
        // METIS manual example shape: a path 1-2-3 (1-based ids).
        let text = "3 2\n2\n1 3\n2\n";
        let g = parse_metis_graph(text).unwrap();
        assert_eq!(g.nvtx(), 3);
        assert_eq!(g.nedges(), 2);
        assert_eq!(g.degree(1), 2);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn parse_with_weights_and_comments() {
        let text = "% a comment\n2 1 011 2\n% vertex 1\n3 4 2 7\n1 2 1 7\n";
        let g = parse_metis_graph(text).unwrap();
        assert_eq!(g.ncon(), 2);
        assert_eq!(g.vertex_weights(0), &[3, 4]);
        assert_eq!(g.vertex_weights(1), &[1, 2]);
        assert_eq!(g.edge_weights(0).collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn roundtrip_grid() {
        let g = grid_graph(5, 4);
        let text = to_metis_graph(&g);
        let back = parse_metis_graph(&text).unwrap();
        assert_eq!(back.nvtx(), g.nvtx());
        assert_eq!(back.nedges(), g.nedges());
        assert_eq!(back.ncon(), g.ncon());
        for v in 0..g.nvtx() as u32 {
            let mut a: Vec<u32> = g.neighbors(v).collect();
            let mut b: Vec<u32> = back.neighbors(v).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "vertex {v}");
            assert_eq!(g.vertex_weights(v), back.vertex_weights(v));
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(matches!(
            parse_metis_graph(""),
            Err(MetisParseError::BadHeader(_))
        ));
        assert!(matches!(
            parse_metis_graph("2 1\n5\n1\n"),
            Err(MetisParseError::BadLine { .. })
        ));
        // Declares 2 edges but the body only holds one.
        assert!(matches!(
            parse_metis_graph("2 2\n2\n1\n"),
            Err(MetisParseError::EdgeCountMismatch { .. })
        ));
        assert!(matches!(
            parse_metis_graph("2 1 100\n2\n1\n"),
            Err(MetisParseError::BadHeader(_))
        ));
    }

    #[test]
    fn a_header_cannot_size_allocations_past_the_text() {
        // Each of these used to reach `GraphBuilder::new` and abort on a
        // multi-gigabyte `vec!`; the last overflowed `nvtx * ncon`.
        for text in [
            "4000000000 3\n2\n",
            "2 1 0 99999999999\n2\n1\n",
            "2 1 10 99999999999\n1 2\n1 1\n",
            "5000000000 0\n",
            "2 1 10 18446744073709551615\n1 2\n1 1\n",
        ] {
            let err = parse_metis_graph(text).expect_err(text);
            assert!(
                matches!(err, MetisParseError::BadHeader(_)),
                "{text:?}: {err}"
            );
        }
        // Fewer vertex lines than declared is a header error too.
        assert_eq!(
            parse_metis_graph("3 1\n2\n1\n"),
            Err(MetisParseError::BadHeader(
                "3 vertices declared, 2 lines follow".into()
            ))
        );
    }

    #[test]
    fn weights_above_u32_are_rejected_not_truncated() {
        // 5000000000 used to become 705032704 through `as Weight`.
        for (text, line) in [
            ("2 1 10\n5000000000 2\n1 1\n", 2),
            ("2 1 11 2\n1 1 2 3\n1 4294967296 1 3\n", 3),
            ("2 1 1\n2 5000000000\n1 5000000000\n", 2),
        ] {
            let err = parse_metis_graph(text).expect_err(text);
            assert!(
                matches!(&err, MetisParseError::BadLine { line: l, reason }
                    if *l == line && reason.contains("exceeds 4294967295")),
                "{text:?}: {err}"
            );
        }
        // The largest weight that fits is kept exactly.
        let g = parse_metis_graph("2 1 11\n4294967295 2 4294967295\n1 1 4294967295\n").unwrap();
        assert_eq!(g.vertex_weights(0), &[u32::MAX]);
        assert_eq!(g.edge_weights(0).collect::<Vec<_>>(), vec![u32::MAX]);
    }

    #[test]
    fn self_loops_are_rejected_not_counted_as_edges() {
        // Both lines list a self-loop beside the one real edge, so the body
        // held the 2 · 2 adjacency entries the header asks for and parsed as
        // a 1-edge graph.
        assert_eq!(
            parse_metis_graph("2 2\n1 2\n1 2\n"),
            Err(MetisParseError::BadLine {
                line: 2,
                reason: "self-loop on vertex 1".into()
            })
        );
        assert!(matches!(
            parse_metis_graph("3 1 1\n2 1\n1 1 2 5\n\n"),
            Err(MetisParseError::BadLine { line: 3, .. })
        ));
    }

    #[test]
    fn blank_lines_after_the_header_are_isolated_vertices() {
        // Vertex 1 has no neighbours: METIS writes it as an empty line.
        let g = parse_metis_graph("3 1\n\n3\n2\n").unwrap();
        assert_eq!((g.nvtx(), g.nedges()), (3, 1));
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![2]);
        // Blank lines ahead of the header, comments between vertex lines and
        // trailing blank lines past the last vertex change nothing.
        let g = parse_metis_graph("\n% c\n3 1\n\n% c\n3\n2\n\n\n").unwrap();
        assert_eq!((g.nvtx(), g.nedges(), g.degree(0)), (3, 1, 0));
        // A non-blank line past the last vertex is still an error.
        assert!(matches!(
            parse_metis_graph("2 1\n2\n1\n\n1\n"),
            Err(MetisParseError::BadLine { line: 5, .. })
        ));
    }

    #[test]
    fn partition_format() {
        assert_eq!(to_metis_partition(&[0, 2, 1]), "0\n2\n1\n");
    }
}
