//! Graph serialization: text edge lists and a binary CSR snapshot.
//!
//! Two formats cover the two real needs:
//!
//! * **Edge-list text** (`.el`) — the interchange format of SNAP/KONECT,
//!   the collections the paper's datasets come from: one `src dst
//!   [weight]` pair per line, `#` comments. Reading one is how a user
//!   points this library at a real dataset.
//! * **Binary CSR** (`.glpg`) — a fast mmap-friendly snapshot (magic +
//!   header + raw arrays, little-endian) so benchmark graphs regenerate
//!   once and reload in milliseconds.

use crate::builder::GraphBuilder;
use crate::csr::{Csr, Graph};
use crate::types::{EdgeId, VertexId};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes of the binary snapshot format.
const MAGIC: &[u8; 8] = b"GLPGRAPH";
/// Snapshot format version.
const VERSION: u32 = 1;

/// Errors from graph I/O.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Text/binary content is not a valid graph.
    Format(String),
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

/// Options for edge-list parsing.
#[derive(Clone, Copy, Debug)]
pub struct EdgeListOptions {
    /// Treat the input as undirected (symmetrize).
    pub undirected: bool,
    /// Merge duplicate pairs (summing weights).
    pub dedup: bool,
}

impl Default for EdgeListOptions {
    fn default() -> Self {
        Self {
            undirected: true,
            dedup: true,
        }
    }
}

/// Reads a SNAP/KONECT-style edge list: whitespace-separated
/// `src dst [weight]` per line; lines starting with `#` or `%` are
/// comments. Vertex ids may be sparse; the graph covers `0..=max_id`.
pub fn read_edge_list(r: impl Read, opts: EdgeListOptions) -> Result<Graph, IoError> {
    let mut edges: Vec<(VertexId, VertexId, f32)> = Vec::new();
    let mut max_id: VertexId = 0;
    let mut weighted = false;
    for (lineno, line) in BufReader::new(r).lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let parse = |s: Option<&str>, what: &str| -> Result<VertexId, IoError> {
            s.ok_or_else(|| IoError::Format(format!("line {}: missing {what}", lineno + 1)))?
                .parse()
                .map_err(|e| IoError::Format(format!("line {}: bad {what}: {e}", lineno + 1)))
        };
        let src = parse(it.next(), "source")?;
        let dst = parse(it.next(), "target")?;
        let w = match it.next() {
            Some(s) => {
                weighted = true;
                s.parse::<f32>()
                    .map_err(|e| IoError::Format(format!("line {}: bad weight: {e}", lineno + 1)))?
            }
            None => 1.0,
        };
        max_id = max_id.max(src).max(dst);
        edges.push((src, dst, w));
    }
    if edges.is_empty() {
        return Err(IoError::Format("no edges in input".to_string()));
    }
    let mut b = GraphBuilder::with_capacity(max_id as usize + 1, edges.len());
    for (s, d, w) in edges {
        if weighted {
            b.add_weighted_edge(s, d, w);
        } else {
            b.add_edge(s, d);
        }
    }
    b.symmetrize(opts.undirected).dedup(opts.dedup);
    Ok(b.build())
}

/// Reads an edge list from a file path.
pub fn read_edge_list_file(
    path: impl AsRef<Path>,
    opts: EdgeListOptions,
) -> Result<Graph, IoError> {
    read_edge_list(std::fs::File::open(path)?, opts)
}

/// Writes the graph's incoming view as an edge list (`dst src` per stored
/// edge becomes `src dst`, i.e. the file round-trips through
/// [`read_edge_list`] with `undirected: false`).
pub fn write_edge_list(g: &Graph, w: impl Write) -> Result<(), IoError> {
    let mut out = BufWriter::new(w);
    writeln!(out, "# glp edge list: {} vertices", g.num_vertices())?;
    let csr = g.incoming();
    for v in 0..g.num_vertices() as VertexId {
        let ws = csr.neighbor_weights(v);
        for (k, &u) in csr.neighbors(v).iter().enumerate() {
            match ws {
                Some(ws) => writeln!(out, "{u} {v} {}", ws[k])?,
                None => writeln!(out, "{u} {v}")?,
            }
        }
    }
    out.flush()?;
    Ok(())
}

fn put_u32(out: &mut impl Write, x: u32) -> io::Result<()> {
    out.write_all(&x.to_le_bytes())
}

fn put_u64(out: &mut impl Write, x: u64) -> io::Result<()> {
    out.write_all(&x.to_le_bytes())
}

fn get_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn get_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Writes the binary CSR snapshot (incoming view; directedness flag and
/// weights preserved).
pub fn write_binary(g: &Graph, w: impl Write) -> Result<(), IoError> {
    let mut out = BufWriter::new(w);
    out.write_all(MAGIC)?;
    put_u32(&mut out, VERSION)?;
    let csr = g.incoming();
    let flags = u32::from(g.is_undirected()) | (u32::from(csr.is_weighted()) << 1);
    put_u32(&mut out, flags)?;
    put_u64(&mut out, g.num_vertices() as u64)?;
    put_u64(&mut out, csr.num_edges())?;
    for &o in csr.offsets() {
        put_u64(&mut out, o)?;
    }
    for &t in csr.targets() {
        put_u32(&mut out, t)?;
    }
    if let Some(ws) = csr.weights() {
        for &x in ws {
            put_u32(&mut out, x.to_bits())?;
        }
    }
    out.flush()?;
    Ok(())
}

/// Reads `count` little-endian values, growing the vector as they arrive
/// rather than trusting `count` for its capacity: a corrupt header then
/// ends in a clean "truncated" error at the end of the input.
fn get_array<R: Read, T>(
    r: &mut R,
    count: u64,
    what: &str,
    get: impl Fn(&mut R) -> io::Result<T>,
) -> Result<Vec<T>, IoError> {
    let mut out = Vec::with_capacity(count.min(1 << 16) as usize);
    for _ in 0..count {
        out.push(get(r).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => {
                IoError::Format(format!("snapshot truncated in its {what}"))
            }
            _ => IoError::Io(e),
        })?);
    }
    Ok(out)
}

/// Reads a binary CSR snapshot written by [`write_binary`].
///
/// Nothing in the input is trusted: a snapshot whose header, offsets or
/// targets do not describe a valid CSR (offsets that do not start at 0,
/// decrease, or do not end at the edge count; a target outside the vertex
/// range; fewer bytes than the header promises) is an
/// [`IoError::Format`], never a panic or a graph that fails later.
pub fn read_binary(r: impl Read) -> Result<Graph, IoError> {
    let mut r = BufReader::new(r);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(IoError::Format("not a glp graph snapshot".to_string()));
    }
    let version = get_u32(&mut r)?;
    if version != VERSION {
        return Err(IoError::Format(format!("unsupported version {version}")));
    }
    let flags = get_u32(&mut r)?;
    let undirected = flags & 1 == 1;
    let weighted = flags & 2 == 2;
    let n = get_u64(&mut r)?;
    let e = get_u64(&mut r)?;
    // Vertex ids are u32, so a graph has at most 2^32 vertices.
    if n > 1 << 32 {
        return Err(IoError::Format(format!("{n} vertices exceed the id range")));
    }
    let offsets: Vec<EdgeId> = get_array(&mut r, n + 1, "offsets", get_u64)?;
    if offsets[0] != 0 {
        return Err(IoError::Format("offsets do not start at 0".to_string()));
    }
    if let Some(v) = offsets.windows(2).position(|w| w[0] > w[1]) {
        return Err(IoError::Format(format!("offsets decrease at vertex {v}")));
    }
    let end = offsets[offsets.len() - 1];
    if end != e {
        return Err(IoError::Format(format!(
            "offsets end at {end}, not at the {e} edges of the header"
        )));
    }
    let targets: Vec<VertexId> = get_array(&mut r, e, "targets", get_u32)?;
    if let Some(&t) = targets.iter().find(|&&t| u64::from(t) >= n) {
        return Err(IoError::Format(format!(
            "target {t} out of range for {n} vertices"
        )));
    }
    let weights = if weighted {
        let bits = get_array(&mut r, e, "weights", get_u32)?;
        Some(bits.into_iter().map(f32::from_bits).collect())
    } else {
        None
    };
    let csr = Csr::from_parts(offsets, targets, weights);
    Ok(if undirected {
        Graph::undirected(csr)
    } else {
        Graph::directed_from_incoming(csr)
    })
}

/// Writes the binary snapshot to a file path.
pub fn write_binary_file(g: &Graph, path: impl AsRef<Path>) -> Result<(), IoError> {
    write_binary(g, std::fs::File::create(path)?)
}

/// Reads the binary snapshot from a file path.
pub fn read_binary_file(path: impl AsRef<Path>) -> Result<Graph, IoError> {
    read_binary(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{community_powerlaw, CommunityPowerLawConfig};

    #[test]
    fn edge_list_roundtrip_unweighted() {
        let text = "# comment\n% other comment\n0 1\n1 2\n2 0\n";
        let g = read_edge_list(text.as_bytes(), EdgeListOptions::default()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 6); // symmetrized
        let mut out = Vec::new();
        write_edge_list(&g, &mut out).unwrap();
        let g2 = read_edge_list(
            out.as_slice(),
            EdgeListOptions {
                undirected: false,
                dedup: false,
            },
        )
        .unwrap();
        assert_eq!(g2.incoming().targets(), g.incoming().targets());
    }

    #[test]
    fn edge_list_weights_parsed() {
        let text = "0 1 2.5\n1 2 0.5\n";
        let g = read_edge_list(
            text.as_bytes(),
            EdgeListOptions {
                undirected: false,
                dedup: false,
            },
        )
        .unwrap();
        assert!(g.incoming().is_weighted());
        assert_eq!(g.incoming().neighbor_weights(1).unwrap(), &[2.5]);
    }

    #[test]
    fn edge_list_errors_are_located() {
        let bad = "0 1\nx 2\n";
        let err = read_edge_list(bad.as_bytes(), EdgeListOptions::default()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let empty = "# nothing\n";
        assert!(read_edge_list(empty.as_bytes(), EdgeListOptions::default()).is_err());
    }

    #[test]
    fn binary_roundtrip_exact() {
        let g = community_powerlaw(&CommunityPowerLawConfig {
            num_vertices: 500,
            avg_degree: 7.0,
            ..Default::default()
        });
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(buf.as_slice()).unwrap();
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.incoming().offsets(), g.incoming().offsets());
        assert_eq!(g2.incoming().targets(), g.incoming().targets());
        assert_eq!(g2.is_undirected(), g.is_undirected());
    }

    #[test]
    fn binary_roundtrip_weighted_directed() {
        let mut b = GraphBuilder::new(4);
        b.add_weighted_edge(0, 1, 1.5)
            .add_weighted_edge(2, 3, -2.25)
            .add_weighted_edge(3, 1, 0.125);
        let g = b.build();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(buf.as_slice()).unwrap();
        assert!(!g2.is_undirected());
        assert_eq!(g2.incoming().weights(), g.incoming().weights());
        assert_eq!(g2.outgoing().neighbors(3), g.outgoing().neighbors(3));
    }

    #[test]
    fn binary_rejects_garbage() {
        assert!(read_binary(&b"NOTAGRPH"[..]).is_err());
        let mut buf = Vec::new();
        write_binary(&crate::gen::path(4), &mut buf).unwrap();
        buf[8] = 99; // break the version
        assert!(read_binary(buf.as_slice()).is_err());
    }

    /// A valid 200-vertex snapshot and the byte offsets of its header's
    /// vertex count, its offsets array and its targets array.
    fn snapshot() -> (Vec<u8>, usize, usize, usize) {
        let mut buf = Vec::new();
        write_binary(&crate::gen::cycle(200), &mut buf).unwrap();
        let n_at = 8 + 4 + 4;
        let offsets_at = n_at + 16;
        (buf, n_at, offsets_at, offsets_at + 201 * 8)
    }

    fn format_error(buf: &[u8]) -> String {
        match read_binary(buf) {
            Err(IoError::Format(m)) => m,
            Err(e) => panic!("expected a format error, got {e}"),
            Ok(_) => panic!("expected a format error, got a graph"),
        }
    }

    #[test]
    fn binary_rejects_a_huge_vertex_count() {
        let (mut buf, n_at, _, _) = snapshot();
        buf[n_at..n_at + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        assert!(format_error(&buf).contains("exceed the id range"));
        // Within the id range but past the end of the input.
        buf[n_at..n_at + 8].copy_from_slice(&(1u64 << 31).to_le_bytes());
        assert!(format_error(&buf).contains("truncated"));
    }

    #[test]
    fn binary_rejects_a_corrupt_offset() {
        let (buf, _, offsets_at, _) = snapshot();
        let at = |k: usize, x: u64| {
            let mut b = buf.clone();
            b[offsets_at + 8 * k..offsets_at + 8 * k + 8].copy_from_slice(&x.to_le_bytes());
            format_error(&b)
        };
        assert!(at(0, 3).contains("start at 0"));
        assert!(at(50, 1).contains("decrease"));
        assert!(at(200, 9_999).contains("not at the"));
    }

    #[test]
    fn binary_rejects_an_out_of_range_target() {
        let (mut buf, _, _, targets_at) = snapshot();
        buf[targets_at + 4 * 7..targets_at + 4 * 8].copy_from_slice(&9_999u32.to_le_bytes());
        assert!(format_error(&buf).contains("target 9999 out of range"));
    }

    #[test]
    fn binary_rejects_a_truncated_snapshot() {
        let (buf, _, offsets_at, targets_at) = snapshot();
        assert!(read_binary(&buf[..]).is_ok());
        assert!(format_error(&buf[..buf.len() - 1]).contains("truncated in its targets"));
        assert!(format_error(&buf[..targets_at - 3]).contains("truncated in its offsets"));
        assert!(read_binary(&buf[..offsets_at - 5]).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let g = crate::gen::path(10);
        let path = std::env::temp_dir().join("glp_io_test.glpg");
        write_binary_file(&g, &path).unwrap();
        let g2 = read_binary_file(&path).unwrap();
        assert_eq!(g2.incoming().targets(), g.incoming().targets());
        let _ = std::fs::remove_file(&path);
    }
}
