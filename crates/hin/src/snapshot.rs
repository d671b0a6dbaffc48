//! Binary graph snapshots: a versioned, checksummed, memory-mappable
//! container for a frozen [`Hin`].
//!
//! The text edge-list format ([`crate::io`]) is the interchange format;
//! parsing it re-validates and re-interns every record, which at millions
//! of edges dominates process start-up. A snapshot instead stores the
//! graph's arrays verbatim — CSR adjacency in both directions, node types,
//! labels, and the *cached* out-weight sums — so loading is one `mmap`
//! (or one buffered read on non-unix platforms) plus an `O(V + E)`
//! structural validation pass, with no parsing and no allocation per edge.
//!
//! ## Format (version 1, little-endian throughout)
//!
//! ```text
//! header   magic "EMGRSNAP" · version u32 · endian-mark u32
//!          num_nodes u64 · num_edges u64 · section-count u32 · pad u32
//! table    section-count × { id u32, crc32 u32, offset u64, len u64 }
//! body     sections, each 8-byte aligned, CRC32 (IEEE) over raw bytes
//! ```
//!
//! Twelve sections: the type registry, per-node types and labels, and the
//! two CSR halves (`offsets`/`endpoints`/`etypes`/`weights` for out and
//! in) plus the out-weight sums. The sums are stored rather than
//! recomputed because [`Hin`] maintains them *incrementally*: after a
//! remove, `sum += w; sum -= w` can leave a rounding residue, and a
//! recomputed sum would make PPR transition rows differ between the
//! original graph and its reloaded snapshot.
//!
//! Corrupt input is a first-class case: truncation, bit flips, and
//! structural lies (offsets out of range, endpoints ≥ `num_nodes`) all
//! surface as typed [`SnapshotError`]s — never a panic or out-of-bounds
//! read — so a snapshot can be served from untrusted storage.

use crate::graph::{EdgeRecord, Hin};
use crate::types::{EdgeTypeId, NodeId, NodeTypeId, TypeRegistry};
use crate::view::GraphView;
use std::fmt;
use std::io;
use std::ops::Range;
use std::path::Path;

const MAGIC: &[u8; 8] = b"EMGRSNAP";
const VERSION: u32 = 1;
/// Written as `04 03 02 01` on disk; reading it back as anything else
/// means the file was produced on (or mangled by) a big-endian writer.
const ENDIAN_MARK: u32 = 0x0102_0304;
const HEADER_LEN: usize = 40;
const TABLE_ENTRY_LEN: usize = 24;

/// Section identifiers of format version 1.
mod sec {
    pub const REGISTRY: u32 = 1;
    pub const NODE_TYPES: u32 = 2;
    pub const LABELS: u32 = 3;
    pub const OUT_OFFSETS: u32 = 4;
    pub const OUT_DSTS: u32 = 5;
    pub const OUT_ETYPES: u32 = 6;
    pub const OUT_WEIGHTS: u32 = 7;
    pub const IN_OFFSETS: u32 = 8;
    pub const IN_SRCS: u32 = 9;
    pub const IN_ETYPES: u32 = 10;
    pub const IN_WEIGHTS: u32 = 11;
    pub const OUT_WSUMS: u32 = 12;
    pub const ALL: [u32; 12] = [
        REGISTRY,
        NODE_TYPES,
        LABELS,
        OUT_OFFSETS,
        OUT_DSTS,
        OUT_ETYPES,
        OUT_WEIGHTS,
        IN_OFFSETS,
        IN_SRCS,
        IN_ETYPES,
        IN_WEIGHTS,
        OUT_WSUMS,
    ];
}

/// Why a snapshot failed to load. Every variant is a diagnosis, not a
/// crash: corrupt bytes must degrade into one of these.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying file I/O failed (open, stat, read).
    Io(io::Error),
    /// The file does not start with the `EMGRSNAP` magic.
    BadMagic,
    /// The format version is not one this build can read.
    BadVersion(u32),
    /// The endianness marker is wrong (foreign-endian writer).
    BadEndian,
    /// The file ends before the named structure is complete.
    Truncated(&'static str),
    /// A section's CRC32 does not match its bytes.
    ChecksumMismatch { section: u32 },
    /// A required section is absent from the table.
    SectionMissing(u32),
    /// Sections are present and checksummed but structurally inconsistent
    /// (bad lengths, non-monotonic offsets, out-of-range endpoints…).
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a graph snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::BadEndian => write!(f, "snapshot written with foreign endianness"),
            SnapshotError::Truncated(what) => write!(f, "snapshot truncated in {what}"),
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section}")
            }
            SnapshotError::SectionMissing(id) => write!(f, "section {id} missing"),
            SnapshotError::Malformed(why) => write!(f, "malformed snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, the zlib polynomial), table-driven.

const fn crc_table() -> [u32; 256] {
    let mut t = [0u32; 256];
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
        t[i] = c;
        i += 1;
    }
    t
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC32 of `data` (IEEE polynomial, init/final xor `!0`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Little-endian accessors. All bounds are validated once at load time, so
// these are plain indexed loads on the hot path; on LE targets the
// `from_le_bytes` compiles to the load itself.

#[inline]
fn u16_at(b: &[u8], i: usize) -> u16 {
    u16::from_le_bytes([b[2 * i], b[2 * i + 1]])
}

#[inline]
fn u32_at(b: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(b[4 * i..4 * i + 4].try_into().expect("validated range"))
}

#[inline]
fn u64_at(b: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(b[8 * i..8 * i + 8].try_into().expect("validated range"))
}

#[inline]
fn f64_at(b: &[u8], i: usize) -> f64 {
    f64::from_bits(u64_at(b, i))
}

// ---------------------------------------------------------------------------
// Writer.

struct SectionWriter {
    body: Vec<u8>,
    table: Vec<(u32, u32, u64, u64)>,
}

impl SectionWriter {
    fn new() -> Self {
        SectionWriter {
            body: Vec::new(),
            table: Vec::new(),
        }
    }

    fn push(&mut self, id: u32, bytes: Vec<u8>) {
        while !self.body.len().is_multiple_of(8) {
            self.body.push(0);
        }
        let offset = (HEADER_LEN + sec::ALL.len() * TABLE_ENTRY_LEN + self.body.len()) as u64;
        self.table
            .push((id, crc32(&bytes), offset, bytes.len() as u64));
        self.body.extend_from_slice(&bytes);
    }
}

/// Serialises the graph into the snapshot container in memory.
pub fn snapshot_to_bytes(g: &Hin) -> Vec<u8> {
    let n = g.num_nodes();
    let mut w = SectionWriter::new();

    // Registry: counts, then length-prefixed UTF-8 names.
    let reg = g.registry();
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(reg.num_node_types() as u32).to_le_bytes());
    bytes.extend_from_slice(&(reg.num_edge_types() as u32).to_le_bytes());
    for t in reg.node_type_ids() {
        let name = reg.node_type_name(t).as_bytes();
        bytes.extend_from_slice(&(name.len() as u32).to_le_bytes());
        bytes.extend_from_slice(name);
    }
    for t in reg.edge_type_ids() {
        let name = reg.edge_type_name(t).as_bytes();
        bytes.extend_from_slice(&(name.len() as u32).to_le_bytes());
        bytes.extend_from_slice(name);
    }
    w.push(sec::REGISTRY, bytes);

    let mut bytes = Vec::with_capacity(2 * n);
    for i in 0..n {
        bytes.extend_from_slice(&g.node_type(NodeId(i as u32)).0.to_le_bytes());
    }
    w.push(sec::NODE_TYPES, bytes);

    // Labels: count, then (node, len, utf-8) for labelled nodes only.
    let mut bytes = Vec::new();
    let labelled = (0..n as u32).filter(|&i| g.label(NodeId(i)).is_some());
    bytes.extend_from_slice(&(labelled.clone().count() as u64).to_le_bytes());
    for i in labelled {
        let l = g.label(NodeId(i)).expect("filtered").as_bytes();
        bytes.extend_from_slice(&i.to_le_bytes());
        bytes.extend_from_slice(&(l.len() as u32).to_le_bytes());
        bytes.extend_from_slice(l);
    }
    w.push(sec::LABELS, bytes);

    // Both CSR halves, adjacency in the graph's own stored order so the
    // round-trip is order-preserving (and therefore bit-identical under
    // every order-sensitive consumer, the transition kernel included).
    for dir in 0..2 {
        let edges = |i: u32| -> &[EdgeRecord] {
            if dir == 0 {
                g.out_edges(NodeId(i))
            } else {
                g.in_edges(NodeId(i))
            }
        };
        let total: usize = (0..n as u32).map(|i| edges(i).len()).sum();
        let mut offsets = Vec::with_capacity(8 * (n + 1));
        let mut endpoints = Vec::with_capacity(4 * total);
        let mut etypes = Vec::with_capacity(2 * total);
        let mut weights = Vec::with_capacity(8 * total);
        let mut acc = 0u64;
        offsets.extend_from_slice(&acc.to_le_bytes());
        for i in 0..n as u32 {
            for e in edges(i) {
                endpoints.extend_from_slice(&e.node.0.to_le_bytes());
                etypes.extend_from_slice(&e.etype.0.to_le_bytes());
                weights.extend_from_slice(&e.weight.to_bits().to_le_bytes());
            }
            acc += edges(i).len() as u64;
            offsets.extend_from_slice(&acc.to_le_bytes());
        }
        if dir == 0 {
            w.push(sec::OUT_OFFSETS, offsets);
            w.push(sec::OUT_DSTS, endpoints);
            w.push(sec::OUT_ETYPES, etypes);
            w.push(sec::OUT_WEIGHTS, weights);
        } else {
            w.push(sec::IN_OFFSETS, offsets);
            w.push(sec::IN_SRCS, endpoints);
            w.push(sec::IN_ETYPES, etypes);
            w.push(sec::IN_WEIGHTS, weights);
        }
    }

    let mut bytes = Vec::with_capacity(8 * n);
    for i in 0..n as u32 {
        bytes.extend_from_slice(&g.out_weight_sum(NodeId(i)).to_bits().to_le_bytes());
    }
    w.push(sec::OUT_WSUMS, bytes);

    let mut out = Vec::with_capacity(HEADER_LEN + sec::ALL.len() * TABLE_ENTRY_LEN + w.body.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&ENDIAN_MARK.to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(g.num_edges() as u64).to_le_bytes());
    out.extend_from_slice(&(w.table.len() as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    for (id, crc, offset, len) in &w.table {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&crc.to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
    }
    out.extend_from_slice(&w.body);
    out
}

/// Writes the graph's snapshot to `path` (atomically via a `.tmp` sibling
/// rename, so a crash mid-write never leaves a half-snapshot behind).
pub fn write_snapshot(g: &Hin, path: &Path) -> io::Result<()> {
    let bytes = snapshot_to_bytes(g);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------------
// Backing storage: a private read-only mapping where the platform has one,
// an owned buffer everywhere else (and when mapping fails).

#[cfg(unix)]
mod mapped {
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    // Declared directly; the workspace deliberately has no `libc` crate
    // (same pattern as the serve crate's event loop).
    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    /// A read-only private file mapping, unmapped on drop.
    pub struct Mapped {
        ptr: *mut u8,
        len: usize,
    }

    // Safety: the mapping is PROT_READ and never mutated or remapped, so
    // shared references to its bytes are valid from any thread.
    unsafe impl Send for Mapped {}
    unsafe impl Sync for Mapped {}

    impl Mapped {
        pub fn map(file: &File, len: usize) -> Option<Mapped> {
            if len == 0 {
                return None; // zero-length mmap is EINVAL
            }
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                None
            } else {
                Some(Mapped { ptr, len })
            }
        }

        pub fn bytes(&self) -> &[u8] {
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mapped {
        fn drop(&mut self) {
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

enum Backing {
    Owned(Vec<u8>),
    #[cfg(unix)]
    Mapped(mapped::Mapped),
}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            Backing::Owned(v) => v,
            #[cfg(unix)]
            Backing::Mapped(m) => m.bytes(),
        }
    }
}

// ---------------------------------------------------------------------------
// Reader.

/// A loaded, validated snapshot: a zero-copy [`GraphView`] over the raw
/// bytes (mapped or owned). All structural invariants are checked once in
/// `Snapshot::from_backing`, so the view accessors are infallible.
pub struct Snapshot {
    backing: Backing,
    registry: TypeRegistry,
    num_nodes: usize,
    num_edges: usize,
    node_types: Range<usize>,
    labels: Range<usize>,
    out_offsets: Range<usize>,
    out_dsts: Range<usize>,
    out_etypes: Range<usize>,
    out_weights: Range<usize>,
    in_offsets: Range<usize>,
    in_srcs: Range<usize>,
    in_etypes: Range<usize>,
    in_weights: Range<usize>,
    out_wsums: Range<usize>,
}

impl Snapshot {
    /// Opens a snapshot file: `mmap` on unix (falling back to a buffered
    /// read if mapping fails), a plain read elsewhere.
    pub fn open(path: &Path) -> Result<Snapshot, SnapshotError> {
        #[cfg(unix)]
        {
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len() as usize;
            if let Some(m) = mapped::Mapped::map(&file, len) {
                return Self::from_backing(Backing::Mapped(m));
            }
        }
        Self::from_bytes(std::fs::read(path)?)
    }

    /// Validates an in-memory snapshot image.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Snapshot, SnapshotError> {
        Self::from_backing(Backing::Owned(bytes))
    }

    /// Whether the backing bytes are a file mapping (as opposed to an
    /// owned, fully-resident buffer).
    pub fn is_mapped(&self) -> bool {
        !matches!(self.backing, Backing::Owned(_))
    }

    /// Size of the backing image in bytes — the resident footprint of the
    /// graph when served straight off the snapshot.
    pub fn image_bytes(&self) -> usize {
        self.backing.bytes().len()
    }

    fn from_backing(backing: Backing) -> Result<Snapshot, SnapshotError> {
        let b = backing.bytes();
        if b.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated("header"));
        }
        if &b[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(b[8..12].try_into().expect("sized"));
        if version != VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let endian = u32::from_le_bytes(b[12..16].try_into().expect("sized"));
        if endian != ENDIAN_MARK {
            return Err(SnapshotError::BadEndian);
        }
        let num_nodes = u64::from_le_bytes(b[16..24].try_into().expect("sized")) as usize;
        let num_edges = u64::from_le_bytes(b[24..32].try_into().expect("sized")) as usize;
        let n_sections = u32::from_le_bytes(b[32..36].try_into().expect("sized")) as usize;

        let table_end = HEADER_LEN
            .checked_add(n_sections.checked_mul(TABLE_ENTRY_LEN).ok_or_else(|| {
                SnapshotError::Malformed(format!("absurd section count {n_sections}"))
            })?)
            .ok_or(SnapshotError::Truncated("section table"))?;
        if b.len() < table_end {
            return Err(SnapshotError::Truncated("section table"));
        }

        let find = |want: u32| -> Result<Range<usize>, SnapshotError> {
            for s in 0..n_sections {
                let at = HEADER_LEN + s * TABLE_ENTRY_LEN;
                let id = u32::from_le_bytes(b[at..at + 4].try_into().expect("sized"));
                if id != want {
                    continue;
                }
                let crc = u32::from_le_bytes(b[at + 4..at + 8].try_into().expect("sized"));
                let offset = u64::from_le_bytes(b[at + 8..at + 16].try_into().expect("sized"));
                let len = u64::from_le_bytes(b[at + 16..at + 24].try_into().expect("sized"));
                let end = offset
                    .checked_add(len)
                    .filter(|&e| e <= b.len() as u64)
                    .ok_or(SnapshotError::Truncated("section body"))?;
                let range = offset as usize..end as usize;
                if crc32(&b[range.clone()]) != crc {
                    return Err(SnapshotError::ChecksumMismatch { section: want });
                }
                return Ok(range);
            }
            Err(SnapshotError::SectionMissing(want))
        };

        let registry_r = find(sec::REGISTRY)?;
        let node_types = find(sec::NODE_TYPES)?;
        let labels = find(sec::LABELS)?;
        let out_offsets = find(sec::OUT_OFFSETS)?;
        let out_dsts = find(sec::OUT_DSTS)?;
        let out_etypes = find(sec::OUT_ETYPES)?;
        let out_weights = find(sec::OUT_WEIGHTS)?;
        let in_offsets = find(sec::IN_OFFSETS)?;
        let in_srcs = find(sec::IN_SRCS)?;
        let in_etypes = find(sec::IN_ETYPES)?;
        let in_weights = find(sec::IN_WEIGHTS)?;
        let out_wsums = find(sec::OUT_WSUMS)?;

        let registry = decode_registry(&b[registry_r])?;

        let malformed = |why: String| Err(SnapshotError::Malformed(why));
        if node_types.len() != 2 * num_nodes {
            return malformed(format!(
                "node-type section holds {} entries",
                node_types.len() / 2
            ));
        }
        if out_wsums.len() != 8 * num_nodes {
            return malformed("weight-sum section length mismatch".into());
        }
        for i in 0..num_nodes {
            let t = u16_at(&b[node_types.clone()], i);
            if t as usize >= registry.num_node_types() {
                return malformed(format!("node {i} has unknown type {t}"));
            }
        }
        for (what, offsets, endpoints, etypes, weights) in [
            ("out", &out_offsets, &out_dsts, &out_etypes, &out_weights),
            ("in", &in_offsets, &in_srcs, &in_etypes, &in_weights),
        ] {
            if offsets.len() != 8 * (num_nodes + 1) {
                return malformed(format!("{what}-offset section length mismatch"));
            }
            let ob = &b[offsets.clone()];
            if u64_at(ob, 0) != 0 || u64_at(ob, num_nodes) != num_edges as u64 {
                return malformed(format!("{what}-offsets do not span the edge count"));
            }
            for i in 0..num_nodes {
                if u64_at(ob, i) > u64_at(ob, i + 1) {
                    return malformed(format!("{what}-offsets decrease at node {i}"));
                }
            }
            if endpoints.len() != 4 * num_edges
                || etypes.len() != 2 * num_edges
                || weights.len() != 8 * num_edges
            {
                return malformed(format!("{what}-edge section length mismatch"));
            }
            let eb = &b[endpoints.clone()];
            let tb = &b[etypes.clone()];
            for i in 0..num_edges {
                if u32_at(eb, i) as usize >= num_nodes {
                    return malformed(format!("{what}-edge {i} endpoint out of range"));
                }
                if u16_at(tb, i) as usize >= registry.num_edge_types() {
                    return malformed(format!("{what}-edge {i} has unknown edge type"));
                }
            }
        }
        decode_labels(&b[labels.clone()], num_nodes).map(drop)?;

        Ok(Snapshot {
            backing,
            registry,
            num_nodes,
            num_edges,
            node_types,
            labels,
            out_offsets,
            out_dsts,
            out_etypes,
            out_weights,
            in_offsets,
            in_srcs,
            in_etypes,
            in_weights,
            out_wsums,
        })
    }

    #[inline]
    fn section(&self, r: &Range<usize>) -> &[u8] {
        &self.backing.bytes()[r.clone()]
    }

    fn edge_range(&self, offsets: &Range<usize>, n: NodeId) -> Range<usize> {
        let ob = self.section(offsets);
        u64_at(ob, n.index()) as usize..u64_at(ob, n.index() + 1) as usize
    }

    /// Reconstructs the mutable [`Hin`], verbatim: adjacency order, labels,
    /// and the cached weight sums are restored exactly as persisted.
    pub fn to_hin(&self) -> Hin {
        let mut g = Hin::with_registry(self.registry.clone());
        let labels =
            decode_labels(self.section(&self.labels), self.num_nodes).expect("validated at load");
        let read_edges = |offsets: &Range<usize>,
                          endpoints: &Range<usize>,
                          etypes: &Range<usize>,
                          weights: &Range<usize>,
                          n: NodeId| {
            let r = self.edge_range(offsets, n);
            let (eb, tb, wb) = (
                self.section(endpoints),
                self.section(etypes),
                self.section(weights),
            );
            r.map(|i| EdgeRecord {
                node: NodeId(u32_at(eb, i)),
                etype: EdgeTypeId(u16_at(tb, i)),
                weight: f64_at(wb, i),
            })
            .collect::<Vec<_>>()
        };
        for i in 0..self.num_nodes as u32 {
            let n = NodeId(i);
            let out = read_edges(
                &self.out_offsets,
                &self.out_dsts,
                &self.out_etypes,
                &self.out_weights,
                n,
            );
            let inc = read_edges(
                &self.in_offsets,
                &self.in_srcs,
                &self.in_etypes,
                &self.in_weights,
                n,
            );
            g.restore_node(
                self.node_type(n),
                labels[n.index()].clone(),
                out,
                inc,
                f64_at(self.section(&self.out_wsums), n.index()),
            );
        }
        g
    }
}

fn decode_registry(b: &[u8]) -> Result<TypeRegistry, SnapshotError> {
    let malformed = |why: &str| SnapshotError::Malformed(format!("registry: {why}"));
    if b.len() < 8 {
        return Err(malformed("too short"));
    }
    let n_node = u32_at(b, 0) as usize;
    let n_edge = u32_at(b, 1) as usize;
    let mut reg = TypeRegistry::new();
    let mut at = 8usize;
    let name = |at: &mut usize| -> Result<String, SnapshotError> {
        if b.len() < *at + 4 {
            return Err(malformed("name length truncated"));
        }
        let len = u32::from_le_bytes(b[*at..*at + 4].try_into().expect("sized")) as usize;
        *at += 4;
        if b.len() < *at + len {
            return Err(malformed("name truncated"));
        }
        let s = std::str::from_utf8(&b[*at..*at + len])
            .map_err(|_| malformed("name not utf-8"))?
            .to_owned();
        *at += len;
        Ok(s)
    };
    for _ in 0..n_node {
        let s = name(&mut at)?;
        reg.node_type(&s);
    }
    for _ in 0..n_edge {
        let s = name(&mut at)?;
        reg.edge_type(&s);
    }
    if reg.num_node_types() != n_node || reg.num_edge_types() != n_edge {
        return Err(malformed("duplicate type names"));
    }
    Ok(reg)
}

fn decode_labels(b: &[u8], num_nodes: usize) -> Result<Vec<Option<String>>, SnapshotError> {
    let malformed = |why: &str| SnapshotError::Malformed(format!("labels: {why}"));
    if b.len() < 8 {
        return Err(malformed("too short"));
    }
    let count = u64_at(b, 0) as usize;
    let mut labels = vec![None; num_nodes];
    let mut at = 8usize;
    for _ in 0..count {
        if b.len() < at + 8 {
            return Err(malformed("entry truncated"));
        }
        let node = u32::from_le_bytes(b[at..at + 4].try_into().expect("sized")) as usize;
        let len = u32::from_le_bytes(b[at + 4..at + 8].try_into().expect("sized")) as usize;
        at += 8;
        if node >= num_nodes {
            return Err(malformed("label for out-of-range node"));
        }
        if b.len() < at + len {
            return Err(malformed("text truncated"));
        }
        let s = std::str::from_utf8(&b[at..at + len]).map_err(|_| malformed("text not utf-8"))?;
        labels[node] = Some(s.to_owned());
        at += len;
    }
    Ok(labels)
}

impl GraphView for Snapshot {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn node_type(&self, n: NodeId) -> NodeTypeId {
        NodeTypeId(u16_at(self.section(&self.node_types), n.index()))
    }

    fn registry(&self) -> &TypeRegistry {
        &self.registry
    }

    fn for_each_out<F: FnMut(NodeId, EdgeTypeId, f64)>(&self, n: NodeId, mut f: F) {
        let (eb, tb, wb) = (
            self.section(&self.out_dsts),
            self.section(&self.out_etypes),
            self.section(&self.out_weights),
        );
        for i in self.edge_range(&self.out_offsets, n) {
            f(
                NodeId(u32_at(eb, i)),
                EdgeTypeId(u16_at(tb, i)),
                f64_at(wb, i),
            );
        }
    }

    fn for_each_in<F: FnMut(NodeId, EdgeTypeId, f64)>(&self, n: NodeId, mut f: F) {
        let (eb, tb, wb) = (
            self.section(&self.in_srcs),
            self.section(&self.in_etypes),
            self.section(&self.in_weights),
        );
        for i in self.edge_range(&self.in_offsets, n) {
            f(
                NodeId(u32_at(eb, i)),
                EdgeTypeId(u16_at(tb, i)),
                f64_at(wb, i),
            );
        }
    }

    fn out_degree(&self, n: NodeId) -> usize {
        self.edge_range(&self.out_offsets, n).len()
    }

    fn in_degree(&self, n: NodeId) -> usize {
        self.edge_range(&self.in_offsets, n).len()
    }

    fn out_weight_sum(&self, n: NodeId) -> f64 {
        f64_at(self.section(&self.out_wsums), n.index())
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::EdgeKey;

    fn sample() -> Hin {
        let mut g = Hin::new();
        let user = g.registry_mut().node_type("user");
        let item = g.registry_mut().node_type("item");
        let rated = g.registry_mut().edge_type("rated");
        let follows = g.registry_mut().edge_type("follows");
        let u = g.add_node(user, Some("Paul Atreides"));
        let v = g.add_node(user, None);
        let i = g.add_node(item, Some("Dune — Deluxe"));
        g.add_edge_bidirectional(u, i, rated, 2.5).unwrap();
        g.add_edge(u, v, follows, 0.125).unwrap();
        g.add_edge(v, i, rated, 0.1).unwrap();
        // Leave an incremental-sum residue behind: 0.1 + 0.3 - 0.3 is not
        // bitwise 0.1 in f64, and the snapshot must preserve the residue.
        g.add_edge(v, u, rated, 0.3).unwrap();
        g.remove_edge(v, u, rated).unwrap();
        g
    }

    fn assert_views_identical(a: &impl GraphView, b: &impl GraphView) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.registry(), b.registry());
        for i in 0..a.num_nodes() as u32 {
            let n = NodeId(i);
            assert_eq!(a.node_type(n), b.node_type(n));
            assert_eq!(
                a.out_weight_sum(n).to_bits(),
                b.out_weight_sum(n).to_bits(),
                "weight sum of {n}"
            );
            type EdgeSink<'s> = dyn FnMut(NodeId, EdgeTypeId, f64) + 's;
            let collect = |g: &dyn Fn(&mut EdgeSink)| {
                let mut v: Vec<(u32, u16, u64)> = Vec::new();
                g(&mut |d, t, w| v.push((d.0, t.0, w.to_bits())));
                v
            };
            let a_out = collect(&|f| a.for_each_out(n, f));
            let b_out = collect(&|f| b.for_each_out(n, f));
            assert_eq!(a_out, b_out, "out rows of {n} (order included)");
            let a_in = collect(&|f| a.for_each_in(n, f));
            let b_in = collect(&|f| b.for_each_in(n, f));
            assert_eq!(a_in, b_in, "in rows of {n} (order included)");
        }
    }

    #[test]
    fn round_trip_in_memory_is_bit_exact() {
        let g = sample();
        let snap = Snapshot::from_bytes(snapshot_to_bytes(&g)).unwrap();
        assert!(!snap.is_mapped());
        assert_views_identical(&g, &snap);
        let back = snap.to_hin();
        assert_views_identical(&g, &back);
        for n in g.node_ids() {
            assert_eq!(g.label(n), back.label(n));
        }
        // Re-snapshotting the reconstruction is byte-identical.
        assert_eq!(snapshot_to_bytes(&back), snapshot_to_bytes(&g));
    }

    #[test]
    fn file_round_trip_uses_mmap_on_unix() {
        let g = sample();
        let dir = std::env::temp_dir().join(format!("emigre-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.snap");
        write_snapshot(&g, &path).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        #[cfg(unix)]
        assert!(snap.is_mapped());
        assert_eq!(
            snap.image_bytes(),
            std::fs::metadata(&path).unwrap().len() as usize
        );
        assert_views_identical(&g, &snap);
        assert_views_identical(&g, &snap.to_hin());
        drop(snap);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incremental_weight_sum_residue_survives() {
        let g = sample();
        let v = NodeId(1);
        // The residue case: the cached sum differs from a recomputation.
        let mut recomputed = 0.0;
        g.for_each_out(v, |_, _, w| recomputed += w);
        assert_ne!(g.out_weight_sum(v).to_bits(), recomputed.to_bits());
        let snap = Snapshot::from_bytes(snapshot_to_bytes(&g)).unwrap();
        assert_eq!(
            snap.out_weight_sum(v).to_bits(),
            g.out_weight_sum(v).to_bits()
        );
        assert_eq!(
            snap.to_hin().out_weight_sum(v).to_bits(),
            g.out_weight_sum(v).to_bits()
        );
    }

    #[test]
    fn truncation_fails_typed_at_every_length() {
        let bytes = snapshot_to_bytes(&sample());
        for cut in [
            0,
            4,
            HEADER_LEN - 1,
            HEADER_LEN + 3,
            bytes.len() / 2,
            bytes.len() - 1,
        ] {
            match Snapshot::from_bytes(bytes[..cut].to_vec()) {
                Err(
                    SnapshotError::Truncated(_)
                    | SnapshotError::BadMagic
                    | SnapshotError::ChecksumMismatch { .. },
                ) => {}
                Err(other) => panic!("cut at {cut}: unexpected {other:?}"),
                Ok(_) => panic!("cut at {cut} went undetected"),
            }
        }
    }

    #[test]
    fn flipped_bit_fails_checksum() {
        let good = snapshot_to_bytes(&sample());
        let table_end = HEADER_LEN + sec::ALL.len() * TABLE_ENTRY_LEN;
        // Flip one bit in every section body byte position and demand a
        // typed failure each time (checksum, or malformed for the few
        // bytes whose corruption keeps the CRC section table consistent —
        // impossible here since CRC covers all body bytes).
        let mut failures = 0;
        for at in (table_end..good.len()).step_by(97) {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            match Snapshot::from_bytes(bad) {
                Err(SnapshotError::ChecksumMismatch { .. }) => failures += 1,
                Err(other) => panic!("flip at {at}: unexpected {other:?}"),
                Ok(_) => panic!("flip at {at} went undetected"),
            }
        }
        assert!(failures > 0);
    }

    #[test]
    fn header_corruption_is_diagnosed() {
        let good = snapshot_to_bytes(&sample());
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(bad),
            Err(SnapshotError::BadMagic)
        ));
        let mut bad = good.clone();
        bad[8] = 99;
        assert!(matches!(
            Snapshot::from_bytes(bad),
            Err(SnapshotError::BadVersion(99))
        ));
        let mut bad = good.clone();
        bad[12..16].copy_from_slice(&0x0403_0201u32.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(bad),
            Err(SnapshotError::BadEndian)
        ));
    }

    #[test]
    fn structural_lies_are_malformed_not_ub() {
        let g = sample();
        // Claim one more node than the sections carry: every length check
        // must catch it before any accessor runs.
        let mut bad = snapshot_to_bytes(&g);
        let n = g.num_nodes() as u64 + 1;
        bad[16..24].copy_from_slice(&n.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(bad),
            Err(SnapshotError::Malformed(_))
        ));
        // Claim a different edge count.
        let mut bad = snapshot_to_bytes(&g);
        let e = g.num_edges() as u64 + 1;
        bad[24..32].copy_from_slice(&e.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(bad),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = Hin::new();
        let snap = Snapshot::from_bytes(snapshot_to_bytes(&g)).unwrap();
        assert_eq!(snap.num_nodes(), 0);
        assert_eq!(snap.num_edges(), 0);
        assert_eq!(snap.to_hin().num_nodes(), 0);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 check value (zlib, PNG, gzip).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn delta_overlay_composes_with_snapshot_view() {
        use crate::delta::GraphDelta;
        let g = sample();
        let snap = Snapshot::from_bytes(snapshot_to_bytes(&g)).unwrap();
        let rated = snap.registry().find_edge_type("rated").unwrap();
        let mut d = GraphDelta::new();
        d.remove_edge(EdgeKey::new(NodeId(0), NodeId(2), rated));
        let v = d.overlay(&snap);
        assert!(!v.has_edge(NodeId(0), NodeId(2), rated));
        assert!(g.has_edge(NodeId(0), NodeId(2), rated));
    }
}
