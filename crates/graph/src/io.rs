//! Graph serialization: SNAP-style text edge lists and two binary
//! snapshot formats.
//!
//! The text format is one `u v` pair per line, whitespace separated, with
//! `#` / `%` comment lines — the format of the SNAP dumps the paper uses.
//!
//! # Binary snapshots
//!
//! **v1** (`HKGRAPH1`) is the original streaming format: magic, `n`,
//! `arcs`, then offsets as `u64` and neighbor ids as `u32`. It must be
//! parsed value-by-value into fresh heap arrays — an O(file) copy plus
//! allocator traffic per load.
//!
//! **v2** (`HKGRAPH2`) is the *servable* format: a fixed 64-byte header,
//! a checksummed section table, and one 64-byte-aligned section per CSR
//! array (offsets `u64`, neighbors `u32`, degrees `u32`), each with its
//! own FNV-1a checksum. Because every section is aligned and already in
//! the in-memory layout, a loader can read (or mmap) the whole file into
//! one aligned arena and hand out slices *in place* — see
//! [`crate::storage`]. That is what lets a multi-graph registry hold many
//! snapshots resident for the price of one buffer each.
//!
//! ```text
//! offset  size  field
//! 0x00    8     magic  "HKGRAPH2"
//! 0x08    4     version (= 2), little-endian u32
//! 0x0c    4     flags   (= 0, reserved)
//! 0x10    8     n       (node count, u64)
//! 0x18    8     arcs    (2m, u64)
//! 0x20    4     section count (= 3)
//! 0x24    4     reserved (= 0)
//! 0x28    8     FNV-1a checksum of the section table bytes
//! 0x30    16    reserved (= 0)
//! 0x40    96    section table: 3 entries x 32 bytes
//!               { kind u32, elem_size u32, byte_off u64, elem_count u64,
//!                 checksum u64 }
//! 0xc0    ...   sections (offsets, neighbors, degrees), each starting on
//!               a 64-byte boundary, zero-padded between and after
//! ```
//!
//! Section kinds: 1 = offsets, 2 = neighbors, 3 = degrees. All integers
//! little-endian. The v2 loader validates the header, the table checksum,
//! section alignment/bounds/non-overlap, every per-section checksum, and
//! the structural invariants that memory safety rests on — monotone
//! offsets consistent with `n`/`arcs`, degree-array/offset agreement,
//! neighbor ids in range — before constructing a graph, so the unchecked
//! hot-path accessors stay sound even on arena-backed graphs. Adjacency
//! *sortedness and symmetry* are trusted from the writer (exactly as the
//! v1 loader trusts them): a nonconforming third-party writer produces a
//! graph whose `has_edge`/sweep answers are wrong but whose memory
//! accesses are still in bounds; run
//! [`Graph::check_invariants`](crate::Graph::check_invariants) on
//! untrusted snapshots.
//! [`save_binary_v2`] is the v1 → v2 conversion path: load any supported
//! format, write v2.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use crate::builder::GraphBuilder;
use crate::csr::{Graph, NodeId};
use crate::error::GraphError;
use crate::storage::{Arena, SECTION_ALIGN};

/// Magic prefix of the binary format (version 1).
const MAGIC: &[u8; 8] = b"HKGRAPH1";
/// Magic prefix of the aligned snapshot format (version 2).
const MAGIC_V2: &[u8; 8] = b"HKGRAPH2";
/// Version field value of the v2 format.
const V2_VERSION: u32 = 2;
/// Fixed v2 header length (before the section table).
const V2_HEADER_BYTES: usize = 0x40;
/// Bytes per section-table entry.
const V2_ENTRY_BYTES: usize = 32;
/// Section count of the v2 format.
const V2_SECTIONS: usize = 3;
/// Section kinds, in file order.
const KIND_OFFSETS: u32 = 1;
const KIND_NEIGHBORS: u32 = 2;
const KIND_DEGREES: u32 = 3;

/// Parse a text edge list from a reader. Lines starting with `#` or `%` and
/// blank lines are skipped; node ids must fit in `u32`.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let u = parse_node(it.next(), idx + 1)?;
        let v = parse_node(it.next(), idx + 1)?;
        b.add_edge(u, v);
    }
    Ok(b.build())
}

fn parse_node(tok: Option<&str>, line: usize) -> Result<NodeId, GraphError> {
    let tok = tok.ok_or_else(|| GraphError::Parse {
        line,
        msg: "expected two node ids per line".into(),
    })?;
    tok.parse::<NodeId>().map_err(|e| GraphError::Parse {
        line,
        msg: format!("bad node id {tok:?}: {e}"),
    })
}

/// Load a text edge list from a file path.
pub fn load_edge_list<P: AsRef<Path>>(path: P) -> Result<Graph, GraphError> {
    read_edge_list(BufReader::new(File::open(path)?))
}

/// Write a graph as a text edge list (`u v` with `u < v`, one per line).
pub fn write_edge_list<W: Write>(graph: &Graph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# undirected graph: {} nodes, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    )?;
    for (u, v) in graph.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()?;
    Ok(())
}

/// Save a text edge list to a file path.
pub fn save_edge_list<P: AsRef<Path>>(graph: &Graph, path: P) -> Result<(), GraphError> {
    write_edge_list(graph, File::create(path)?)
}

/// Write the compact v1 binary representation.
///
/// Layout: magic, `n: u64`, `arcs: u64`, then `n+1` offsets as `u64` and
/// `arcs` neighbor ids as `u32`, all little-endian.
pub fn write_binary<W: Write>(graph: &Graph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    w.write_all(MAGIC)?;
    let n = graph.num_nodes() as u64;
    let arcs = graph.volume() as u64;
    w.write_all(&n.to_le_bytes())?;
    w.write_all(&arcs.to_le_bytes())?;
    let mut off = 0u64;
    w.write_all(&off.to_le_bytes())?;
    for v in graph.nodes() {
        off += graph.degree(v) as u64;
        w.write_all(&off.to_le_bytes())?;
    }
    for v in graph.nodes() {
        for &u in graph.neighbors(v) {
            w.write_all(&u.to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Save the v1 binary representation to a file path.
pub fn save_binary<P: AsRef<Path>>(graph: &Graph, path: P) -> Result<(), GraphError> {
    write_binary(graph, File::create(path)?)
}

/// Read a binary snapshot from a reader, auto-detecting the version by
/// magic. A v1 stream parses into the owned backend; a v2 stream is read
/// to the end and loaded through an aligned arena (zero-copy section
/// views). For files, prefer [`load_binary`] / [`load_binary_v2`] /
/// `load_binary_mmap`, which avoid the intermediate buffer.
pub fn read_binary<R: Read>(reader: R) -> Result<Graph, GraphError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic == MAGIC {
        return read_binary_v1_body(&mut r);
    }
    if &magic == MAGIC_V2 {
        let mut rest = Vec::new();
        r.read_to_end(&mut rest)?;
        let mut arena = Arena::zeroed(8 + rest.len());
        let buf = arena.as_mut_slice();
        buf[..8].copy_from_slice(&magic);
        buf[8..].copy_from_slice(&rest);
        return read_binary_v2_from_arena(Arc::new(arena));
    }
    Err(GraphError::Format(
        "bad magic (not an HKGRAPH1/HKGRAPH2 file)".into(),
    ))
}

/// v1 body parser; `r` is positioned just past the magic.
fn read_binary_v1_body<R: Read>(r: &mut R) -> Result<Graph, GraphError> {
    let n = read_u64(r)? as usize;
    let arcs = read_u64(r)? as usize;
    if n > u32::MAX as usize {
        return Err(GraphError::Format(format!(
            "node count {n} exceeds u32 ids"
        )));
    }
    if !arcs.is_multiple_of(2) {
        return Err(GraphError::Format(format!("odd arc count {arcs}")));
    }
    // Do not pre-reserve from the (unvalidated) header: a corrupted size
    // must fail at EOF, not abort on allocation.
    let mut offsets = Vec::new();
    for _ in 0..=n {
        offsets.push(read_u64(r)? as usize);
    }
    if offsets[0] != 0 || offsets[n] != arcs {
        return Err(GraphError::Format("inconsistent offsets".into()));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(GraphError::Format(
            "offsets not monotone (corrupted file)".into(),
        ));
    }
    // A single node's degree must fit in u32 (`Graph` stores dense u32
    // degrees); a crafted offset table claiming a larger one must be a
    // typed error here, not a downstream assertion in `from_csr`.
    if let Some(w) = offsets.windows(2).find(|w| w[1] - w[0] > u32::MAX as usize) {
        return Err(GraphError::Format(format!(
            "degree {} exceeds u32 (corrupted file)",
            w[1] - w[0]
        )));
    }
    let mut neighbors = Vec::new();
    let mut buf = [0u8; 4];
    for _ in 0..arcs {
        r.read_exact(&mut buf)?;
        let id = u32::from_le_bytes(buf);
        if id as usize >= n {
            return Err(GraphError::NodeOutOfRange {
                node: id as u64,
                num_nodes: n,
            });
        }
        neighbors.push(id);
    }
    Ok(Graph::from_csr(offsets, neighbors))
}

/// Load a binary snapshot from a file path, auto-detecting v1 vs v2 by
/// magic. v2 files load through the aligned-arena path (one `read` into
/// one buffer, sections viewed in place).
pub fn load_binary<P: AsRef<Path>>(path: P) -> Result<Graph, GraphError> {
    let mut f = File::open(path)?;
    let mut magic = [0u8; 8];
    f.read_exact(&mut magic)?;
    f.seek(SeekFrom::Start(0))?;
    if &magic == MAGIC_V2 {
        load_v2_into_arena(f)
    } else {
        read_binary(f)
    }
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, GraphError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

// ---------------------------------------------------------------------------
// v2: aligned, checksummed snapshot format
// ---------------------------------------------------------------------------

/// Round `x` up to the next [`SECTION_ALIGN`] boundary.
fn align64(x: u64) -> u64 {
    x.div_ceil(SECTION_ALIGN as u64) * SECTION_ALIGN as u64
}

/// FNV-1a over a byte slice — the checksum of the v2 format. Not
/// cryptographic; it detects the corruption classes that actually occur
/// (truncation, bit rot, partial writes), like the CRC of other columnar
/// formats.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Write the v2 snapshot representation (see the module docs for the
/// layout). This is also the v1 → v2 conversion path: `load_binary` any
/// existing file, then `write_binary_v2` it.
pub fn write_binary_v2<W: Write>(graph: &Graph, writer: W) -> Result<(), GraphError> {
    let n = graph.num_nodes() as u64;
    let arcs = graph.volume() as u64;

    // Materialize the three section payloads so their checksums are known
    // before the header is emitted. (Snapshot writing is cold; one pass
    // of buffering is the simple correct thing.)
    let mut offsets = Vec::with_capacity(((n + 1) * 8) as usize);
    let mut running = 0u64;
    offsets.extend_from_slice(&running.to_le_bytes());
    for v in graph.nodes() {
        running += graph.degree(v) as u64;
        offsets.extend_from_slice(&running.to_le_bytes());
    }
    let mut neighbors = Vec::with_capacity((arcs * 4) as usize);
    for v in graph.nodes() {
        for &u in graph.neighbors(v) {
            neighbors.extend_from_slice(&u.to_le_bytes());
        }
    }
    let mut degrees = Vec::with_capacity((n * 4) as usize);
    for v in graph.nodes() {
        degrees.extend_from_slice(&(graph.degree(v) as u32).to_le_bytes());
    }

    let data_start = align64((V2_HEADER_BYTES + V2_SECTIONS * V2_ENTRY_BYTES) as u64);
    let off_pos = data_start;
    let nbr_pos = align64(off_pos + offsets.len() as u64);
    let deg_pos = align64(nbr_pos + neighbors.len() as u64);
    let file_end = align64(deg_pos + degrees.len() as u64);

    // Section table.
    let mut table = Vec::with_capacity(V2_SECTIONS * V2_ENTRY_BYTES);
    for (kind, elem_size, pos, count, payload) in [
        (KIND_OFFSETS, 8u32, off_pos, n + 1, &offsets),
        (KIND_NEIGHBORS, 4, nbr_pos, arcs, &neighbors),
        (KIND_DEGREES, 4, deg_pos, n, &degrees),
    ] {
        table.extend_from_slice(&kind.to_le_bytes());
        table.extend_from_slice(&elem_size.to_le_bytes());
        table.extend_from_slice(&pos.to_le_bytes());
        table.extend_from_slice(&count.to_le_bytes());
        table.extend_from_slice(&fnv1a(payload).to_le_bytes());
    }

    // Header.
    let mut header = [0u8; V2_HEADER_BYTES];
    header[0x00..0x08].copy_from_slice(MAGIC_V2);
    header[0x08..0x0c].copy_from_slice(&V2_VERSION.to_le_bytes());
    // 0x0c..0x10: flags = 0
    header[0x10..0x18].copy_from_slice(&n.to_le_bytes());
    header[0x18..0x20].copy_from_slice(&arcs.to_le_bytes());
    header[0x20..0x24].copy_from_slice(&(V2_SECTIONS as u32).to_le_bytes());
    // 0x24..0x28: reserved = 0
    header[0x28..0x30].copy_from_slice(&fnv1a(&table).to_le_bytes());
    // 0x30..0x40: reserved = 0

    fn emit<W: Write>(
        w: &mut BufWriter<W>,
        written: &mut u64,
        bytes: &[u8],
    ) -> Result<(), GraphError> {
        w.write_all(bytes)?;
        *written += bytes.len() as u64;
        Ok(())
    }
    fn pad_to<W: Write>(
        w: &mut BufWriter<W>,
        written: &mut u64,
        target: u64,
    ) -> Result<(), GraphError> {
        debug_assert!(target >= *written);
        const ZEROS: [u8; SECTION_ALIGN] = [0; SECTION_ALIGN];
        let mut gap = (target - *written) as usize;
        while gap > 0 {
            let chunk = gap.min(SECTION_ALIGN);
            w.write_all(&ZEROS[..chunk])?;
            gap -= chunk;
        }
        *written = target;
        Ok(())
    }
    let mut w = BufWriter::new(writer);
    let mut written = 0u64;
    emit(&mut w, &mut written, &header)?;
    emit(&mut w, &mut written, &table)?;
    pad_to(&mut w, &mut written, off_pos)?;
    emit(&mut w, &mut written, &offsets)?;
    pad_to(&mut w, &mut written, nbr_pos)?;
    emit(&mut w, &mut written, &neighbors)?;
    pad_to(&mut w, &mut written, deg_pos)?;
    emit(&mut w, &mut written, &degrees)?;
    pad_to(&mut w, &mut written, file_end)?;
    w.flush()?;
    Ok(())
}

/// Save the v2 snapshot representation to a file path.
pub fn save_binary_v2<P: AsRef<Path>>(graph: &Graph, path: P) -> Result<(), GraphError> {
    write_binary_v2(graph, File::create(path)?)
}

/// Fully validated byte layout of a v2 image: the three section ranges
/// (in bytes) plus the logical sizes. Producing this value means every
/// check listed in the module docs has passed.
struct V2Layout {
    n: usize,
    arcs: usize,
    offsets: std::ops::Range<usize>,
    neighbors: std::ops::Range<usize>,
    degrees: std::ops::Range<usize>,
}

fn v2_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
}

fn v2_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

/// Validate a v2 image end to end. Every failure is a typed
/// [`GraphError`]; no access past `buf` ever occurs because all ranges
/// are bounds-checked against `buf.len()` in `u64` arithmetic before use.
fn validate_v2(buf: &[u8]) -> Result<V2Layout, GraphError> {
    let table_end = V2_HEADER_BYTES + V2_SECTIONS * V2_ENTRY_BYTES;
    if buf.len() < table_end {
        return Err(GraphError::Format(format!(
            "truncated v2 header: {} bytes, need at least {table_end}",
            buf.len()
        )));
    }
    if &buf[..8] != MAGIC_V2 {
        return Err(GraphError::Format(
            "bad magic (not an HKGRAPH2 file)".into(),
        ));
    }
    let version = v2_u32(buf, 0x08);
    if version != V2_VERSION {
        return Err(GraphError::Format(format!(
            "unsupported snapshot version {version} (expected {V2_VERSION})"
        )));
    }
    let flags = v2_u32(buf, 0x0c);
    if flags != 0 {
        return Err(GraphError::Format(format!(
            "unknown snapshot flags {flags:#x}"
        )));
    }
    let n = v2_u64(buf, 0x10);
    let arcs = v2_u64(buf, 0x18);
    if n > u32::MAX as u64 {
        return Err(GraphError::Format(format!(
            "node count {n} exceeds u32 ids"
        )));
    }
    if !arcs.is_multiple_of(2) {
        return Err(GraphError::Format(format!("odd arc count {arcs}")));
    }
    let sections = v2_u32(buf, 0x20);
    if sections as usize != V2_SECTIONS {
        return Err(GraphError::Format(format!(
            "expected {V2_SECTIONS} sections, header claims {sections}"
        )));
    }
    let table = &buf[V2_HEADER_BYTES..table_end];
    let stored_table_sum = v2_u64(buf, 0x28);
    let actual_table_sum = fnv1a(table);
    if stored_table_sum != actual_table_sum {
        return Err(GraphError::ChecksumMismatch {
            section: "section table",
            expected: stored_table_sum,
            actual: actual_table_sum,
        });
    }

    let expected: [(&'static str, u32, u32, u64); V2_SECTIONS] = [
        ("offsets", KIND_OFFSETS, 8, n + 1),
        ("neighbors", KIND_NEIGHBORS, 4, arcs),
        ("degrees", KIND_DEGREES, 4, n),
    ];
    let file_len = buf.len() as u64;
    let mut prev_end = align64(table_end as u64);
    let mut ranges = [0..0usize, 0..0, 0..0];
    for (i, (name, want_kind, want_elem, want_count)) in expected.into_iter().enumerate() {
        let at = V2_HEADER_BYTES + i * V2_ENTRY_BYTES;
        let kind = v2_u32(buf, at);
        let elem = v2_u32(buf, at + 4);
        let pos = v2_u64(buf, at + 8);
        let count = v2_u64(buf, at + 16);
        let stored_sum = v2_u64(buf, at + 24);
        if kind != want_kind {
            return Err(GraphError::Format(format!(
                "section {i}: kind {kind}, expected {want_kind} ({name})"
            )));
        }
        if elem != want_elem {
            return Err(GraphError::Format(format!(
                "section {name}: element size {elem}, expected {want_elem}"
            )));
        }
        if count != want_count {
            return Err(GraphError::Format(format!(
                "section {name}: {count} elements, header implies {want_count}"
            )));
        }
        if !pos.is_multiple_of(SECTION_ALIGN as u64) {
            return Err(GraphError::Format(format!(
                "section {name}: byte offset {pos} not {SECTION_ALIGN}-byte aligned"
            )));
        }
        if pos < prev_end {
            return Err(GraphError::Format(format!(
                "section {name}: byte offset {pos} overlaps the previous section (ends {prev_end})"
            )));
        }
        let byte_len = count
            .checked_mul(elem as u64)
            .ok_or_else(|| GraphError::Format(format!("section {name}: size overflow")))?;
        let end = pos
            .checked_add(byte_len)
            .ok_or_else(|| GraphError::Format(format!("section {name}: size overflow")))?;
        if end > file_len {
            return Err(GraphError::Format(format!(
                "section {name}: ends at {end}, file has {file_len} bytes (truncated?)"
            )));
        }
        let range = pos as usize..end as usize;
        let actual_sum = fnv1a(&buf[range.clone()]);
        if stored_sum != actual_sum {
            return Err(GraphError::ChecksumMismatch {
                section: name,
                expected: stored_sum,
                actual: actual_sum,
            });
        }
        ranges[i] = range;
        prev_end = align64(end);
    }
    if prev_end != file_len {
        return Err(GraphError::Format(format!(
            "file has {file_len} bytes, sections (padded) end at {prev_end}"
        )));
    }

    let [off_range, nbr_range, deg_range] = ranges;
    let n = n as usize;
    let arcs = arcs as usize;

    // Structural validation — the same guarantees the v1 parser enforces,
    // plus degree-array consistency. These are what make the unchecked
    // accessors of the walk kernel sound on this graph.
    let off_at = |i: usize| v2_u64(buf, off_range.start + i * 8);
    if off_at(0) != 0 {
        return Err(GraphError::Format("inconsistent offsets".into()));
    }
    if off_at(n) != arcs as u64 {
        return Err(GraphError::Format("inconsistent offsets".into()));
    }
    let mut prev = 0u64;
    for v in 0..n {
        let next = off_at(v + 1);
        if next < prev {
            return Err(GraphError::Format(
                "offsets not monotone (corrupted file)".into(),
            ));
        }
        let degree = next - prev;
        if degree > u32::MAX as u64 {
            return Err(GraphError::Format(format!(
                "degree {degree} exceeds u32 (corrupted file)"
            )));
        }
        let stored_degree = v2_u32(buf, deg_range.start + v * 4);
        if stored_degree as u64 != degree {
            return Err(GraphError::Format(format!(
                "degree section disagrees with offsets at node {v}"
            )));
        }
        prev = next;
    }
    for i in 0..arcs {
        let id = v2_u32(buf, nbr_range.start + i * 4);
        if id as usize >= n {
            return Err(GraphError::NodeOutOfRange {
                node: id as u64,
                num_nodes: n,
            });
        }
    }

    Ok(V2Layout {
        n,
        arcs,
        offsets: off_range,
        neighbors: nbr_range,
        degrees: deg_range,
    })
}

/// Load a v2 snapshot held in an aligned arena, validating it fully and
/// viewing the CSR sections in place (zero-copy on 64-bit little-endian
/// targets; a parse-and-copy fallback keeps other targets correct).
pub fn read_binary_v2_from_arena(arena: Arc<Arena>) -> Result<Graph, GraphError> {
    let layout = validate_v2(arena.as_slice())?;
    #[cfg(all(target_pointer_width = "64", target_endian = "little"))]
    {
        let buf = arena.as_slice();
        // SAFETY: `validate_v2` proved each range in-bounds, 64-byte
        // aligned (so >= the element alignment; the arena base itself is
        // 64-byte aligned) and exactly `count * elem_size` long. On a
        // 64-bit little-endian target, `u64` file words are bit-identical
        // to `usize` memory words, and the structural checks above
        // established every invariant `Graph` requires.
        let graph = unsafe {
            let offsets = std::slice::from_raw_parts(
                buf.as_ptr().add(layout.offsets.start) as *const usize,
                layout.n + 1,
            );
            let neighbors = std::slice::from_raw_parts(
                buf.as_ptr().add(layout.neighbors.start) as *const NodeId,
                layout.arcs,
            );
            let degrees = std::slice::from_raw_parts(
                buf.as_ptr().add(layout.degrees.start) as *const u32,
                layout.n,
            );
            Graph::from_arena_parts(Arc::clone(&arena), offsets, neighbors, degrees)
        };
        Ok(graph)
    }
    #[cfg(not(all(target_pointer_width = "64", target_endian = "little")))]
    {
        // Portable fallback: decode into owned arrays.
        let buf = arena.as_slice();
        let offsets: Vec<usize> = (0..=layout.n)
            .map(|i| v2_u64(buf, layout.offsets.start + i * 8) as usize)
            .collect();
        let neighbors: Vec<NodeId> = (0..layout.arcs)
            .map(|i| v2_u32(buf, layout.neighbors.start + i * 4))
            .collect();
        Ok(Graph::from_csr(offsets, neighbors))
    }
}

/// Read a v2 snapshot from an open file into a fresh aligned arena
/// (one `read` syscall pass, then in-place section views).
fn load_v2_into_arena(mut f: File) -> Result<Graph, GraphError> {
    let len = f.metadata()?.len();
    let len = usize::try_from(len)
        .map_err(|_| GraphError::Format("file exceeds address space".into()))?;
    let mut arena = Arena::zeroed(len);
    f.read_exact(arena.as_mut_slice())?;
    read_binary_v2_from_arena(Arc::new(arena))
}

/// Load a v2 snapshot from a file path onto the heap-arena backend.
/// Unlike [`load_binary`] this does not accept v1 files — use it where a
/// zero-copy load is the point (e.g. the serving registry).
pub fn load_binary_v2<P: AsRef<Path>>(path: P) -> Result<Graph, GraphError> {
    load_v2_into_arena(File::open(path)?)
}

/// Map a v2 snapshot read-only and view the CSR sections in place
/// (demand-paged; no read pass, no heap copy). Validation still touches
/// every byte once, which doubles as page warm-up. See the `mmap` caveats
/// in [`crate::storage`].
#[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
pub fn load_binary_mmap<P: AsRef<Path>>(path: P) -> Result<Graph, GraphError> {
    let f = File::open(path)?;
    let arena = Arena::map_file(&f)?;
    read_binary_v2_from_arena(Arc::new(arena))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::storage::StorageBackend;

    fn sample() -> Graph {
        graph_from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    }

    #[test]
    fn text_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn text_parser_skips_comments_and_blanks() {
        let text = "# header\n\n% another comment\n0 1\n  1   2  \n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn text_parser_reports_line_numbers() {
        let text = "0 1\nnot_a_node 2\n";
        match read_edge_list(text.as_bytes()) {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn text_parser_requires_two_tokens() {
        let text = "0\n";
        assert!(matches!(
            read_edge_list(text.as_bytes()),
            Err(GraphError::Parse { .. })
        ));
    }

    #[test]
    fn binary_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g, g2);
        assert_eq!(g2.backend(), StorageBackend::Owned);
    }

    #[test]
    fn binary_v2_roundtrip_via_reader() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary_v2(&g, &mut buf).unwrap();
        // Sections are 64-byte aligned, so the file is too.
        assert_eq!(buf.len() % SECTION_ALIGN, 0);
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g, g2);
        assert_eq!(g2.backend(), StorageBackend::Arena);
        assert_eq!(g.fingerprint(), g2.fingerprint());
        assert!(g2.check_invariants().is_ok());
    }

    #[test]
    fn binary_v2_empty_graph_roundtrip() {
        for n in [0usize, 1, 7] {
            let g = Graph::empty(n);
            let mut buf = Vec::new();
            write_binary_v2(&g, &mut buf).unwrap();
            let g2 = read_binary(&buf[..]).unwrap();
            assert_eq!(g, g2);
            assert_eq!(g.fingerprint(), g2.fingerprint());
        }
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let buf = b"NOTMAGIC________".to_vec();
        assert!(matches!(read_binary(&buf[..]), Err(GraphError::Format(_))));
    }

    #[test]
    fn binary_rejects_truncated_file() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn binary_rejects_out_of_range_neighbor() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // Overwrite the last neighbor id with an out-of-range value.
        let last = buf.len() - 4;
        buf[last..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_binary(&buf[..]),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("hk_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let g = sample();
        let txt = dir.join("g.txt");
        let bin = dir.join("g.bin");
        let bin2 = dir.join("g.hkg2");
        save_edge_list(&g, &txt).unwrap();
        save_binary(&g, &bin).unwrap();
        save_binary_v2(&g, &bin2).unwrap();
        assert_eq!(load_edge_list(&txt).unwrap(), g);
        assert_eq!(load_binary(&bin).unwrap(), g);
        // Auto-detect takes the arena path for v2 files…
        let v2 = load_binary(&bin2).unwrap();
        assert_eq!(v2, g);
        assert_eq!(v2.backend(), StorageBackend::Arena);
        // …and the explicit v2 loader rejects v1 files.
        assert!(matches!(load_binary_v2(&bin), Err(GraphError::Format(_))));
        assert_eq!(load_binary_v2(&bin2).unwrap(), g);
        #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
        {
            let m = load_binary_mmap(&bin2).unwrap();
            assert_eq!(m, g);
            assert_eq!(m.backend(), StorageBackend::Mmap);
            assert_eq!(m.fingerprint(), g.fingerprint());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::builder::GraphBuilder;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn binary_roundtrip_arbitrary(edges in prop::collection::vec((0u32..60, 0u32..60), 0..200)) {
            let mut b = GraphBuilder::new();
            for (u, v) in edges {
                b.add_edge(u, v);
            }
            let g = b.build();
            let mut buf = Vec::new();
            write_binary(&g, &mut buf).unwrap();
            prop_assert_eq!(read_binary(&buf[..]).unwrap(), g);
        }

        #[test]
        fn binary_v2_roundtrip_arbitrary(edges in prop::collection::vec((0u32..60, 0u32..60), 0..200)) {
            let mut b = GraphBuilder::new();
            for (u, v) in edges {
                b.add_edge(u, v);
            }
            let g = b.build();
            let mut buf = Vec::new();
            write_binary_v2(&g, &mut buf).unwrap();
            let g2 = read_binary(&buf[..]).unwrap();
            prop_assert_eq!(&g2, &g);
            prop_assert_eq!(g2.fingerprint(), g.fingerprint());
            prop_assert!(g2.check_invariants().is_ok());
        }

        #[test]
        fn text_roundtrip_arbitrary(edges in prop::collection::vec((0u32..60, 0u32..60), 0..200)) {
            let mut b = GraphBuilder::new();
            for (u, v) in edges {
                b.add_edge(u, v);
            }
            let g = b.build();
            let mut buf = Vec::new();
            write_edge_list(&g, &mut buf).unwrap();
            let g2 = read_edge_list(&buf[..]).unwrap();
            // Text format drops trailing isolated nodes; compare edges.
            let e1: Vec<_> = g.edges().collect();
            let e2: Vec<_> = g2.edges().collect();
            prop_assert_eq!(e1, e2);
        }
    }
}
