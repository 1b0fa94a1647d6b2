use std::collections::BinaryHeap;


use crate::SimError;

/// One line-sized memory access emitted by the trace generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryRequest {
    /// Line-aligned physical address.
    pub addr: u64,
    /// Write (`true`) or read (`false`).
    pub write: bool,
    /// Whether this line belongs to an encrypted region (and must pass the
    /// AES engine under `Direct`/`Counter` modes).
    pub encrypted: bool,
}

/// How a region's bytes are walked by the workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Sequential scan of the whole region, repeated `passes` times
    /// (fractional passes truncate the final scan). This is the DRAM-traffic
    /// shape of a well-tiled streaming kernel.
    Stream {
        /// Number of full scans (may be fractional).
        passes: f64,
    },
    /// Tile-blocked walk of a `rows × row_bytes` matrix: tiles of
    /// `tile_rows` rows are visited left-to-right, touching each row in
    /// `tile_cols`-byte slices. Strides of `row_bytes` between consecutive
    /// accesses defeat page locality, which is what makes the counter-cache
    /// size sweep of Fig. 1 meaningful.
    Tiled {
        /// Rows of the matrix.
        rows: u64,
        /// Bytes per row.
        row_bytes: u64,
        /// Rows per tile.
        tile_rows: u64,
        /// Bytes of each row touched per tile step.
        tile_cols: u64,
        /// Number of full matrix sweeps.
        passes: f64,
    },
    /// Tile-blocked *reuse* walk: the region is visited in `tile_bytes`
    /// blocks, each streamed `reads` times back-to-back before the walk
    /// advances. This is how a blocked GEMM actually re-reads a weight
    /// panel or im2col slice — the re-reference distance is one tile, not
    /// the whole buffer, so counter-cache hit rate becomes a function of
    /// capacity (the Fig. 6–8 sweeps) instead of collapsing to zero the
    /// way a cyclic full-buffer rescan does.
    TiledReuse {
        /// Reuse-block size in bytes (clamped up to one line).
        tile_bytes: u64,
        /// Times each block is streamed before advancing; the fractional
        /// part truncates the final repeat of every block.
        reads: f64,
    },
}

impl Default for AccessPattern {
    fn default() -> Self {
        AccessPattern::Stream { passes: 1.0 }
    }
}

/// A contiguous address range with an access pattern and security tag.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// Region name (for reports).
    pub name: String,
    /// Base address.
    pub base: u64,
    /// Region size in bytes.
    pub bytes: u64,
    /// Whether the region was allocated with `emalloc` (must be encrypted).
    pub encrypted: bool,
    /// Whether accesses are writes.
    pub write: bool,
    /// Walk pattern.
    pub pattern: AccessPattern,
}

impl Region {
    /// A read region streamed once.
    pub fn read(name: impl Into<String>, base: u64, bytes: u64) -> Self {
        Region {
            name: name.into(),
            base,
            bytes,
            encrypted: false,
            write: false,
            pattern: AccessPattern::default(),
        }
    }

    /// A write region streamed once.
    pub fn write(name: impl Into<String>, base: u64, bytes: u64) -> Self {
        Region {
            write: true,
            ..Region::read(name, base, bytes)
        }
    }

    /// Sets the encrypted tag.
    #[must_use]
    pub fn encrypted(mut self, enc: bool) -> Self {
        self.encrypted = enc;
        self
    }

    /// Sets the number of streaming passes.
    #[must_use]
    pub fn passes(mut self, passes: f64) -> Self {
        self.pattern = AccessPattern::Stream { passes };
        self
    }

    /// Switches to a tiled matrix walk.
    #[must_use]
    pub fn tiled(mut self, rows: u64, row_bytes: u64, tile_rows: u64, tile_cols: u64, passes: f64) -> Self {
        self.pattern = AccessPattern::Tiled {
            rows,
            row_bytes,
            tile_rows,
            tile_cols,
            passes,
        };
        self
    }

    /// Switches to a tile-blocked reuse walk: `tile_bytes` blocks, each
    /// streamed `reads` times back-to-back.
    #[must_use]
    pub fn tiled_reuse(mut self, tile_bytes: u64, reads: f64) -> Self {
        self.pattern = AccessPattern::TiledReuse { tile_bytes, reads };
        self
    }

    /// Total bytes this region moves across the bus (size × passes).
    pub fn traffic_bytes(&self) -> u64 {
        let passes = match self.pattern {
            AccessPattern::Stream { passes } => passes,
            AccessPattern::Tiled { passes, .. } => passes,
            AccessPattern::TiledReuse { reads, .. } => reads,
        };
        (self.bytes as f64 * passes).round() as u64
    }

    /// Emits this region's line-granular request stream.
    fn emit(&self, line: u64, out: &mut Vec<MemoryRequest>) {
        let push = |out: &mut Vec<MemoryRequest>, addr: u64| {
            out.push(MemoryRequest {
                addr: addr / line * line,
                write: self.write,
                encrypted: self.encrypted,
            });
        };
        match self.pattern {
            AccessPattern::Stream { passes } => {
                let total_lines = ((self.bytes as f64 * passes) / line as f64).ceil() as u64;
                let lines_per_pass = self.bytes.div_ceil(line).max(1);
                for i in 0..total_lines {
                    let off = (i % lines_per_pass) * line;
                    push(out, self.base + off);
                }
            }
            AccessPattern::Tiled {
                rows,
                row_bytes,
                tile_rows,
                tile_cols,
                passes,
            } => {
                let tile_rows = tile_rows.max(1);
                let tile_cols = tile_cols.max(line);
                let full_passes = passes.floor() as u64;
                let frac = passes - passes.floor();
                let mut limits = vec![rows; full_passes as usize];
                if frac > 1e-9 {
                    limits.push(((rows as f64) * frac).round() as u64);
                }
                for limit_rows in limits {
                    let mut r0 = 0u64;
                    while r0 < limit_rows {
                        let r1 = (r0 + tile_rows).min(limit_rows);
                        let mut c0 = 0u64;
                        while c0 < row_bytes {
                            let c1 = (c0 + tile_cols).min(row_bytes);
                            for r in r0..r1 {
                                let mut c = c0;
                                while c < c1 {
                                    push(out, self.base + r * row_bytes + c);
                                    c += line;
                                }
                            }
                            c0 = c1;
                        }
                        r0 = r1;
                    }
                }
            }
            AccessPattern::TiledReuse { tile_bytes, reads } => {
                let tile = tile_bytes.max(line);
                let mut t0 = 0u64;
                while t0 < self.bytes {
                    let t1 = (t0 + tile).min(self.bytes);
                    let lines_in_tile = (t1 - t0).div_ceil(line);
                    let total = (lines_in_tile as f64 * reads).round() as u64;
                    for i in 0..total {
                        let off = (i % lines_in_tile) * line;
                        push(out, self.base + t0 + off);
                    }
                    t0 = t1;
                }
            }
        }
    }
}

/// A kernel-level workload: memory regions plus a front-end instruction
/// budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    name: String,
    regions: Vec<Region>,
    instructions: u64,
    frontend_efficiency: f64,
    dram_efficiency: f64,
}

/// Builder for [`Workload`].
#[derive(Debug, Default)]
pub struct WorkloadBuilder {
    name: String,
    regions: Vec<Region>,
    instructions: u64,
    frontend_efficiency: f64,
    dram_efficiency: f64,
}

impl Workload {
    /// Starts building a workload.
    pub fn builder(name: impl Into<String>) -> WorkloadBuilder {
        WorkloadBuilder {
            name: name.into(),
            regions: Vec::new(),
            instructions: 0,
            frontend_efficiency: 0.85,
            dram_efficiency: 0.80,
        }
    }

    /// Workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The memory regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Total front-end (thread) instructions.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Fraction of peak issue the front end sustains.
    pub fn frontend_efficiency(&self) -> f64 {
        self.frontend_efficiency
    }

    /// Fraction of peak DRAM bandwidth this access pattern sustains
    /// (streaming ≈ 0.8–0.85, strided pooling ≈ 0.5).
    pub fn dram_efficiency(&self) -> f64 {
        self.dram_efficiency
    }

    /// Total bytes moved across the memory bus.
    pub fn traffic_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.traffic_bytes()).sum()
    }

    /// Bytes of traffic belonging to encrypted regions.
    pub fn encrypted_bytes(&self) -> u64 {
        self.regions
            .iter()
            .filter(|r| r.encrypted)
            .map(|r| r.traffic_bytes())
            .sum()
    }

    /// Generates the interleaved request trace for `line`-byte accesses.
    ///
    /// Region streams are merged with even pacing (a request from a region
    /// holding `k` of the total `n` requests appears every `n/k` slots), so
    /// concurrent weight/ifmap/ofmap streams hit the controllers the way a
    /// real kernel's loads interleave.
    ///
    /// This materialised form is the reference implementation;
    /// [`request_stream`](Self::request_stream) yields the same requests
    /// in the same order without storing them.
    pub fn trace(&self, line: u64) -> Vec<MemoryRequest> {
        let line = line.max(1);
        let mut streams: Vec<Vec<MemoryRequest>> = Vec::with_capacity(self.regions.len());
        for r in &self.regions {
            let mut s = Vec::new();
            r.emit(line, &mut s);
            streams.push(s);
        }
        merge_evenly(streams)
    }

    /// The request trace for `line`-byte accesses as a lazy stream:
    /// request for request equal to [`trace`](Self::trace), in memory
    /// bounded by the region count rather than the trace length. Each item
    /// carries the request's line index (`addr / line`) beside it.
    pub fn request_stream(&self, line: u64) -> RequestStream {
        let line = line.max(1);
        let mut times = Vec::with_capacity(self.regions.len());
        let mut cursors = Vec::with_capacity(self.regions.len());
        for r in &self.regions {
            let (walk, n) = Walk::new(r, line);
            if n == 0 {
                continue;
            }
            // The same float steps as `merge_evenly`, so pacing ties
            // resolve identically.
            times.push((0.5 / n as f64).to_bits());
            cursors.push(Cursor {
                step: 1.0 / n as f64,
                left: n,
                write: r.write,
                encrypted: r.encrypted,
                walk,
            });
        }
        RequestStream {
            line,
            times,
            cursors,
        }
    }
}

/// A byte address split into its line index and the offset inside that
/// line, so a walk can step by any byte stride without dividing.
#[derive(Debug, Clone, Copy)]
struct LinePos {
    line: u64,
    off: u64,
}

impl LinePos {
    fn new(addr: u64, line: u64) -> Self {
        LinePos {
            line: addr / line,
            off: addr % line,
        }
    }

    /// Advances by a byte stride given as `LinePos::new(stride, line)`.
    fn step(&mut self, by: LinePos, line: u64) {
        self.line += by.line;
        self.off += by.off;
        if self.off >= line {
            self.off -= line;
            self.line += 1;
        }
    }
}

/// One region's walk as a cursor over line indices: the state of the
/// loops in `Region::emit`, advanced one request at a time. The request
/// count is fixed up front, so a cursor never has to detect its own end.
#[derive(Debug, Clone)]
enum Walk {
    /// Blocks of lines, each cycled for a fixed request count before the
    /// walk moves on: `TiledReuse`, and `Stream` as one block.
    Blocks(BlockWalk),
    /// A tile-blocked matrix walk.
    Tiled(TiledWalk),
}

#[derive(Debug, Clone)]
struct TiledWalk {
    base: LinePos,
    /// Strides of one matrix row, one column slice and one band of
    /// `tile_rows` rows.
    row: LinePos,
    slice: LinePos,
    band: LinePos,
    rows: u64,
    tile_rows: u64,
    full_passes: u64,
    /// Rows of the truncated final pass.
    frac_rows: u64,
    slices: u64,
    full_lines: u64,
    last_lines: u64,
    // Position: pass, band `[r0, r1)` of the pass's `limit` rows, slice
    // `j` of `lines` lines, row `r`, line `k` of the slice.
    pass: u64,
    limit: u64,
    r0: u64,
    r1: u64,
    r: u64,
    j: u64,
    lines: u64,
    k: u64,
    band_at: LinePos,
    slice_at: LinePos,
    row_at: LinePos,
}

#[derive(Debug, Clone)]
struct BlockWalk {
    stride: LinePos,
    full_blocks: u64,
    /// (lines, requests) of a full block and of the partial last one.
    full: (u64, u64),
    partial: (u64, u64),
    // Position: block `block` at `at` with `lines` lines and `requests`
    // requests, `done` of them made, line `k`.
    block: u64,
    at: LinePos,
    lines: u64,
    requests: u64,
    done: u64,
    k: u64,
}

impl BlockWalk {
    /// `full_blocks` blocks of `full` (lines, requests), then one of
    /// `partial`, `stride` bytes apart from `base`.
    fn new(
        base: u64,
        line: u64,
        stride: u64,
        full_blocks: u64,
        full: (u64, u64),
        partial: (u64, u64),
    ) -> Self {
        let (lines, requests) = if full_blocks > 0 { full } else { partial };
        BlockWalk {
            stride: LinePos::new(stride, line),
            full_blocks,
            full,
            partial,
            block: 0,
            at: LinePos::new(base, line),
            lines,
            requests,
            done: 0,
            k: 0,
        }
    }

    fn advance(&mut self, line: u64) {
        self.done += 1;
        if self.done < self.requests {
            self.k += 1;
            if self.k == self.lines {
                self.k = 0;
            }
            return;
        }
        self.block += 1;
        self.at.step(self.stride, line);
        (self.lines, self.requests) = if self.block < self.full_blocks {
            self.full
        } else {
            self.partial
        };
        self.done = 0;
        self.k = 0;
    }
}

impl Walk {
    /// The cursor at a region's first request, and its request count.
    fn new(r: &Region, line: u64) -> (Walk, u64) {
        match r.pattern {
            AccessPattern::Stream { passes } => {
                let total = ((r.bytes as f64 * passes) / line as f64).ceil() as u64;
                let lines = r.bytes.div_ceil(line).max(1);
                let walk = BlockWalk::new(r.base, line, 0, 1, (lines, total), (0, 0));
                (Walk::Blocks(walk), total)
            }
            AccessPattern::Tiled {
                rows,
                row_bytes,
                tile_rows,
                tile_cols,
                passes,
            } => {
                let tile_rows = tile_rows.max(1);
                let tile_cols = tile_cols.max(line);
                let full_passes = passes.floor() as u64;
                let frac = passes - passes.floor();
                let frac_rows = if frac > 1e-9 {
                    ((rows as f64) * frac).round() as u64
                } else {
                    0
                };
                let slices = row_bytes.div_ceil(tile_cols);
                let full_lines = tile_cols.div_ceil(line);
                let last_lines = (row_bytes - slices.saturating_sub(1) * tile_cols).div_ceil(line);
                let row_lines = slices.saturating_sub(1) * full_lines + last_lines;
                let total = (full_passes * rows + frac_rows) * row_lines;
                let base = LinePos::new(r.base, line);
                let limit = if full_passes > 0 { rows } else { frac_rows };
                let mut walk = TiledWalk {
                    base,
                    row: LinePos::new(row_bytes, line),
                    slice: LinePos::new(tile_cols, line),
                    band: LinePos::new(tile_rows.wrapping_mul(row_bytes), line),
                    rows,
                    tile_rows,
                    full_passes,
                    frac_rows,
                    slices,
                    full_lines,
                    last_lines,
                    pass: 0,
                    limit,
                    r0: 0,
                    r1: tile_rows.min(limit),
                    r: 0,
                    j: 0,
                    lines: 0,
                    k: 0,
                    band_at: base,
                    slice_at: base,
                    row_at: base,
                };
                walk.lines = walk.slice_lines();
                (Walk::Tiled(walk), total)
            }
            AccessPattern::TiledReuse { tile_bytes, reads } => {
                let tile = tile_bytes.max(line);
                let geometry = |bytes: u64| {
                    let lines = bytes.div_ceil(line);
                    (lines, (lines as f64 * reads).round() as u64)
                };
                let full_tiles = r.bytes / tile;
                let (full, partial) = (geometry(tile), geometry(r.bytes % tile));
                let walk = BlockWalk::new(r.base, line, tile, full_tiles, full, partial);
                (Walk::Blocks(walk), full_tiles * full.1 + partial.1)
            }
        }
    }

    /// Line index of the current request.
    fn line(&self) -> u64 {
        match self {
            Walk::Blocks(b) => b.at.line + b.k,
            Walk::Tiled(t) => t.row_at.line + t.k,
        }
    }

    /// Moves to the next request; only called while requests remain.
    fn advance(&mut self, line: u64) {
        match self {
            Walk::Blocks(b) => b.advance(line),
            Walk::Tiled(t) => t.advance(line),
        }
    }
}

impl TiledWalk {
    /// Lines in slice `j` of a row.
    fn slice_lines(&self) -> u64 {
        if self.j + 1 == self.slices {
            self.last_lines
        } else {
            self.full_lines
        }
    }

    fn advance(&mut self, line: u64) {
        self.k += 1;
        if self.k < self.lines {
            return;
        }
        self.k = 0;
        self.r += 1;
        if self.r < self.r1 {
            self.row_at.step(self.row, line);
            return;
        }
        self.r = self.r0;
        self.j += 1;
        if self.j < self.slices {
            self.slice_at.step(self.slice, line);
            self.row_at = self.slice_at;
            self.lines = self.slice_lines();
            return;
        }
        self.j = 0;
        self.lines = self.slice_lines();
        if self.r1 < self.limit {
            self.r0 = self.r1;
            self.band_at.step(self.band, line);
        } else {
            self.pass += 1;
            self.limit = if self.pass < self.full_passes {
                self.rows
            } else {
                self.frac_rows
            };
            self.r0 = 0;
            self.band_at = self.base;
        }
        self.r1 = self.r0.saturating_add(self.tile_rows).min(self.limit);
        self.r = self.r0;
        self.slice_at = self.band_at;
        self.row_at = self.band_at;
    }
}

/// One region's place in the pacing merge.
#[derive(Debug, Clone)]
struct Cursor {
    step: f64,
    left: u64,
    write: bool,
    encrypted: bool,
    walk: Walk,
}

/// Lazy form of [`Workload::trace`], from [`Workload::request_stream`]:
/// yields `(line index, request)` pairs. It holds one small cursor per
/// region and merges them by the same pacing rule as the materialised
/// trace — the earliest next time wins, a tie goes to the lower region.
#[derive(Debug, Clone)]
pub struct RequestStream {
    line: u64,
    /// Next pacing time per live cursor as `f64` bits, kept apart so the
    /// scan for the earliest touches one small array. Pacing times are
    /// positive and finite, where the bit patterns order as the values do
    /// and an integer compare is a shorter dependency chain than a float
    /// one.
    times: Vec<u64>,
    /// Live cursors in region order.
    cursors: Vec<Cursor>,
}

impl Iterator for RequestStream {
    type Item = (u64, MemoryRequest);

    fn next(&mut self) -> Option<Self::Item> {
        let (first, rest) = self.times.split_first()?;
        let mut best = 0;
        let mut t = *first;
        // Select rather than branch: which region wins is what the pacing
        // interleaves, so a branch here would mispredict. A strict `<`
        // keeps the lower region on a tie, as `Pace::cmp` does.
        for (i, &ti) in rest.iter().enumerate() {
            let earlier = ti < t;
            t = if earlier { ti } else { t };
            best = if earlier { i + 1 } else { best };
        }
        let c = &mut self.cursors[best];
        let line = c.walk.line();
        let req = MemoryRequest {
            addr: line * self.line,
            write: c.write,
            encrypted: c.encrypted,
        };
        c.left -= 1;
        if c.left == 0 {
            self.cursors.remove(best);
            self.times.remove(best);
        } else {
            self.times[best] = (f64::from_bits(t) + c.step).to_bits();
            c.walk.advance(self.line);
        }
        Some((line, req))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left: u64 = self.cursors.iter().map(|c| c.left).sum();
        let left = usize::try_from(left).unwrap_or(usize::MAX);
        (left, Some(left))
    }
}

impl ExactSizeIterator for RequestStream {}

/// Min-heap entry for the pacing merge.
#[derive(Debug, PartialEq)]
struct Pace {
    next_time: f64,
    stream: usize,
    index: usize,
}

impl Eq for Pace {}

impl Ord for Pace {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap and we want the earliest time.
        other
            .next_time
            .partial_cmp(&self.next_time)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.stream.cmp(&self.stream))
    }
}

impl PartialOrd for Pace {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

fn merge_evenly(streams: Vec<Vec<MemoryRequest>>) -> Vec<MemoryRequest> {
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut heap = BinaryHeap::new();
    for (i, s) in streams.iter().enumerate() {
        if !s.is_empty() {
            heap.push(Pace {
                next_time: 0.5 / s.len() as f64,
                stream: i,
                index: 0,
            });
        }
    }
    let mut out = Vec::with_capacity(total);
    while let Some(Pace {
        next_time,
        stream,
        index,
    }) = heap.pop()
    {
        out.push(streams[stream][index]);
        let n = streams[stream].len();
        if index + 1 < n {
            heap.push(Pace {
                next_time: next_time + 1.0 / n as f64,
                stream,
                index: index + 1,
            });
        }
    }
    out
}

impl WorkloadBuilder {
    /// Adds a region.
    #[must_use]
    pub fn region(mut self, region: Region) -> Self {
        self.regions.push(region);
        self
    }

    /// Sets the front-end instruction budget.
    #[must_use]
    pub fn instructions(mut self, n: u64) -> Self {
        self.instructions = n;
        self
    }

    /// Overrides the front-end efficiency (fraction of peak issue).
    #[must_use]
    pub fn frontend_efficiency(mut self, eff: f64) -> Self {
        self.frontend_efficiency = eff;
        self
    }

    /// Overrides the DRAM row-locality efficiency.
    #[must_use]
    pub fn dram_efficiency(mut self, eff: f64) -> Self {
        self.dram_efficiency = eff;
        self
    }

    /// Finalises the workload.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an empty region list or
    /// out-of-range efficiencies.
    pub fn build(self) -> Result<Workload, SimError> {
        if self.regions.is_empty() {
            return Err(SimError::InvalidConfig {
                reason: "workload needs at least one region".into(),
            });
        }
        for eff in [self.frontend_efficiency, self.dram_efficiency] {
            if !(0.01..=1.0).contains(&eff) {
                return Err(SimError::InvalidConfig {
                    reason: format!("efficiency {eff} outside (0, 1]"),
                });
            }
        }
        Ok(Workload {
            name: self.name,
            regions: self.regions,
            instructions: self.instructions,
            frontend_efficiency: self.frontend_efficiency,
            dram_efficiency: self.dram_efficiency,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_emits_line_aligned_sequential_addresses() {
        let r = Region::read("a", 0x1000, 512);
        let mut out = Vec::new();
        r.emit(128, &mut out);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].addr, 0x1000);
        assert_eq!(out[3].addr, 0x1000 + 3 * 128);
        assert!(!out[0].write && !out[0].encrypted);
    }

    #[test]
    fn fractional_passes_truncate() {
        let r = Region::read("a", 0, 1024).passes(2.5);
        let mut out = Vec::new();
        r.emit(128, &mut out);
        assert_eq!(out.len(), 20); // 8 lines × 2.5.
    }

    #[test]
    fn tiled_walk_strides_across_rows() {
        let r = Region::read("m", 0, 4 * 4096).tiled(4, 4096, 2, 128, 1.0);
        let mut out = Vec::new();
        r.emit(128, &mut out);
        // First tile: rows 0 and 1 at column 0 — stride of one row (4 KB).
        assert_eq!(out[0].addr, 0);
        assert_eq!(out[1].addr, 4096);
        assert_eq!(out.len(), 4 * 4096 / 128);
    }

    #[test]
    fn tiled_reuse_rereads_each_block_back_to_back() {
        let r = Region::read("w", 0, 1024).tiled_reuse(512, 2.0);
        let mut out = Vec::new();
        r.emit(128, &mut out);
        // Two 512 B tiles of 4 lines, each streamed twice: 16 requests.
        assert_eq!(out.len(), 16);
        // First tile repeats immediately (short re-reference distance)…
        assert_eq!(out[0].addr, 0);
        assert_eq!(out[4].addr, 0);
        // …and the second tile starts only after both reads of the first.
        assert_eq!(out[8].addr, 512);
        assert_eq!(out[12].addr, 512);
    }

    #[test]
    fn tiled_reuse_fractional_reads_truncate_per_tile() {
        let r = Region::read("w", 0, 1024).tiled_reuse(512, 1.5);
        let mut out = Vec::new();
        r.emit(128, &mut out);
        // 4 lines × 1.5 per tile = 6 requests per tile, two tiles.
        assert_eq!(out.len(), 12);
        assert_eq!(r.traffic_bytes(), 1536);
    }

    #[test]
    fn traffic_accounting() {
        let wl = Workload::builder("t")
            .region(Region::read("a", 0, 1000).encrypted(true).passes(2.0))
            .region(Region::write("b", 10_000, 500))
            .instructions(42)
            .build()
            .unwrap();
        assert_eq!(wl.traffic_bytes(), 2500);
        assert_eq!(wl.encrypted_bytes(), 2000);
        assert_eq!(wl.instructions(), 42);
    }

    #[test]
    fn merge_interleaves_streams_evenly() {
        let wl = Workload::builder("t")
            .region(Region::read("big", 0, 128 * 90))
            .region(Region::write("small", 1 << 20, 128 * 10))
            .build()
            .unwrap();
        let trace = wl.trace(128);
        assert_eq!(trace.len(), 100);
        // The 10 writes should be spread out, not clumped at either end.
        let first_write = trace.iter().position(|r| r.write).unwrap();
        let last_write = trace.iter().rposition(|r| r.write).unwrap();
        assert!(first_write < 15, "first write at {first_write}");
        assert!(last_write > 85, "last write at {last_write}");
    }

    #[test]
    fn builder_validation() {
        assert!(Workload::builder("e").build().is_err());
        assert!(Workload::builder("e")
            .region(Region::read("a", 0, 128))
            .dram_efficiency(0.0)
            .build()
            .is_err());
    }

    #[test]
    fn trace_is_deterministic() {
        let wl = Workload::builder("t")
            .region(Region::read("a", 0, 128 * 50))
            .region(Region::read("b", 1 << 20, 128 * 30))
            .build()
            .unwrap();
        assert_eq!(wl.trace(128), wl.trace(128));
    }
}
