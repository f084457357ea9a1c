//! Column-at-a-time enhancement for the incremental streaming path.
//!
//! [`IncrementalEnhancer`] consumes raw ROI spectrogram columns one at a
//! time and emits finished binary columns as soon as they can no longer
//! change, producing output bitwise identical to running the offline
//! [`Enhancer::enhance`](crate::Enhancer::enhance) chain over the whole
//! session at once. Per-stage finality:
//!
//! - **median 3×3** — column `m` is an order statistic of a clamped window;
//!   final once raw column `m+1` exists (the last column clamps at finish).
//! - **background** — the per-row mean of the first `static_frames` median
//!   columns; frozen as soon as those columns are final, after which
//!   subtraction and the α threshold are pointwise.
//! - **Gaussian 5×5** — separable; the horizontal pass needs two columns of
//!   lookahead, the vertical pass is column-local.
//! - **binarization** — requires [`Normalization::FixedScale`]: the paper's
//!   global-max normalization is non-causal, so the streaming configuration
//!   trades it for a calibrated constant full-scale (see
//!   [`EnhanceConfig::streaming`]).
//! - **hole filling** — incremental union-find over per-column runs of
//!   background pixels. Border contact is monotone (once a region touches
//!   the border it stays unfillable) and regions are decided the moment
//!   they close (no run in the newest column), so columns are emitted in
//!   order with bounded delay: a column waits only while a hole spanning it
//!   is still open.

use crate::enhance::{EnhanceConfig, Normalization};
use crate::spectrogram::Spectrogram;
use echowrite_dsp::filters::gaussian_kernel;
use echowrite_dsp::kernels;
use std::collections::VecDeque;

/// Half-width of the 3×3 median window.
const MHALF: usize = EnhanceConfig::MEDIAN_SIZE / 2;

/// Streaming counterpart of [`Enhancer`](crate::Enhancer): push raw ROI
/// columns, receive finished binary columns, batch-equivalent bitwise.
///
/// Every buffer is sized at construction, so pushing a column allocates
/// nothing in the steady state. The hole filler's union-find arena and
/// run queues start with room for a typical word session and grow only
/// past that warm-up size: while a session opens more than 512 union-find
/// components before a compaction, or holds more than 16 background runs
/// in one column or undecided behind an open hole. They keep their
/// capacity across [`IncrementalEnhancer::reset`], so a pool of reused
/// enhancers stops allocating once each has seen its longest session.
///
/// # Example
///
/// ```
/// use echowrite_spectro::{EnhanceConfig, IncrementalEnhancer};
/// let mut inc = IncrementalEnhancer::new(EnhanceConfig::streaming(), 16);
/// let mut got = Vec::new();
/// inc.push_column(&vec![1.0; 16], &mut |_, col| got.push(col.to_vec()));
/// inc.finish(&mut |_, col| got.push(col.to_vec()));
/// assert_eq!(got.len(), 1);
/// ```
#[derive(Debug)]
pub struct IncrementalEnhancer {
    cfg: EnhanceConfig,
    rows: usize,
    /// Effective binarization threshold on raw smoothed magnitudes.
    binarize_at: f64,
    kernel: Vec<f64>,
    ghalf: usize,
    /// Sorted vertical triples (`kernels::median3_sort_into` layout) of the
    /// three newest raw columns, column `i` in slot `i % 3`: they hold the
    /// median window's retained raw columns `[med_n − 1, raw_n)`, which
    /// `kernels::median3_unsort_into` recovers for state export.
    sorted: Vec<i64>,
    /// Raw columns received.
    raw_n: usize,
    /// Median columns finalized.
    med_n: usize,
    /// Median columns awaiting the Gaussian window. Before the background
    /// freezes it holds the `pre_n` lead-in columns (from column 0); after,
    /// the subtracted+thresholded columns `[h_n − ghalf, thr_n)`.
    cols: ColRing,
    pre_n: usize,
    /// Thresholded columns produced.
    thr_n: usize,
    /// The frozen per-row static background (meaningful once `frozen`).
    background: Vec<f64>,
    frozen: bool,
    /// Columns fully smoothed, binarized, and handed to hole filling.
    h_n: usize,
    holes: HoleFiller,
    /// Scratch: the horizontal Gaussian pass of one column.
    hcol: Vec<f64>,
    finished: bool,
}

impl IncrementalEnhancer {
    /// Creates an incremental enhancer for columns of `rows` bins.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation, uses
    /// [`Normalization::GlobalZeroOne`] (non-causal), or enables burst
    /// suppression (not yet streamable), or if `rows` is zero.
    pub fn new(cfg: EnhanceConfig, rows: usize) -> Self {
        if let Err(msg) = cfg.validate() {
            // echolint: allow(no-panic-path) -- documented `# Panics` contract of IncrementalEnhancer::new
            panic!("invalid enhancement config: {msg}");
        }
        assert!(rows > 0, "columns need at least one row");
        let scale = match cfg.normalization {
            Normalization::FixedScale(s) => s,
            Normalization::GlobalZeroOne => {
                // echolint: allow(no-panic-path) -- documented `# Panics` contract of IncrementalEnhancer::new
                panic!("incremental enhancement requires Normalization::FixedScale")
            }
        };
        assert!(
            cfg.burst_suppression.is_none(),
            "incremental enhancement does not support burst suppression"
        );
        let kernel = gaussian_kernel(cfg.gaussian_size, None);
        let ghalf = kernel.len() / 2;
        // The lead-in holds up to `static_frames` columns; afterwards stage
        // 2 runs after every thresholded column, so the Gaussian window
        // never exceeds one kernel width.
        let slots = cfg.static_frames.max(kernel.len());
        IncrementalEnhancer {
            binarize_at: cfg.binarize_threshold * scale,
            rows,
            sorted: vec![0; 3 * 3 * rows],
            raw_n: 0,
            med_n: 0,
            cols: ColRing::new(rows, slots),
            pre_n: 0,
            thr_n: 0,
            background: vec![0.0; rows],
            frozen: false,
            h_n: 0,
            holes: HoleFiller::new(rows),
            hcol: vec![0.0; rows],
            kernel,
            ghalf,
            cfg,
            finished: false,
        }
    }

    /// Raw columns received so far.
    pub fn columns_in(&self) -> usize {
        self.raw_n
    }

    /// Whether the static background has been frozen (the lead-in has
    /// completed or a warm reset carried one over).
    pub fn background_frozen(&self) -> bool {
        self.frozen
    }

    /// Restores the enhancer to its fresh state in place, reusing every
    /// allocation. The next session re-estimates the static background from
    /// its own opening frames.
    pub fn reset(&mut self) {
        self.frozen = false;
        self.reset_keeping_background();
    }

    /// Like [`IncrementalEnhancer::reset`], but retains the frozen static
    /// background so the next session skips the `static_frames` lead-in:
    /// its opening columns are subtracted against the carried-over
    /// background immediately instead of being buffered for estimation.
    pub fn reset_keeping_background(&mut self) {
        self.raw_n = 0;
        self.med_n = 0;
        self.cols.clear();
        self.pre_n = 0;
        self.thr_n = 0;
        self.h_n = 0;
        self.holes.reset();
        self.finished = false;
    }

    /// Binary columns emitted so far.
    pub fn columns_out(&self) -> usize {
        self.holes.next_emit
    }

    /// Appends one raw ROI column; `sink` receives `(column_index, binary
    /// column)` for every output column that became final.
    ///
    /// # Panics
    ///
    /// Panics if `raw.len() != rows` or the enhancer is already finished.
    // echolint: hot
    pub fn push_column(&mut self, raw: &[f64], sink: &mut impl FnMut(usize, &[f64])) {
        assert!(!self.finished, "push_column after finish");
        assert_eq!(raw.len(), self.rows, "column length mismatch");
        let (frozen_before, out_before) = (self.frozen, self.columns_out());
        // Column j takes the slot of column j − 3, which no window still
        // open reads.
        let j = self.raw_n;
        self.raw_n += 1;
        kernels::median3_sort_into(&mut self.sorted[sorted_slot(j, self.rows)], raw);
        self.advance(None, sink);
        if echowrite_trace::enabled() {
            self.trace_push(frozen_before, out_before);
        }
    }

    /// Tracing for one push: the background freeze instant and the count
    /// of columns it finalized.
    fn trace_push(&self, frozen_before: bool, out_before: usize) {
        use echowrite_trace::{SmallStr, Stage, TICK_UNSET};
        if !frozen_before && self.frozen {
            echowrite_trace::instant(
                Stage::Enhance,
                "background_frozen",
                TICK_UNSET,
                SmallStr::empty(),
            );
        }
        echowrite_trace::counter(
            Stage::Enhance,
            "columns_out",
            TICK_UNSET,
            (self.columns_out() - out_before) as f64,
        );
    }

    /// Ends the session: flushes edge-clamped columns and closes every open
    /// hole region. Output columns emitted before and during `finish`
    /// concatenate to exactly the offline enhancement of the whole session.
    pub fn finish(&mut self, sink: &mut impl FnMut(usize, &[f64])) {
        if self.finished {
            return;
        }
        self.finished = true;
        if self.raw_n == 0 {
            return;
        }
        self.advance(Some(self.raw_n), sink);
        self.holes.finish(sink);
    }

    /// Runs every stage as far as finality allows; `total` is the session
    /// column count once known (at finish).
    fn advance(&mut self, total: Option<usize>, sink: &mut impl FnMut(usize, &[f64])) {
        loop {
            let m = self.med_n;
            let computable = match total {
                Some(t) => m < t,
                // Column m clamps columns up to m + 1; final once the
                // window's rightmost real column exists.
                None => m + MHALF < self.raw_n,
            };
            if !computable {
                break;
            }
            let right = (m + MHALF).min(total.unwrap_or(self.raw_n) - 1);
            let rows = self.rows;
            let l = sorted_slot(m.saturating_sub(MHALF), rows);
            let (c, r) = (sorted_slot(m, rows), sorted_slot(right, rows));
            kernels::median3_merge_into(
                self.cols.push_slot(),
                &self.sorted[l],
                &self.sorted[c],
                &self.sorted[r],
            );
            self.median_done(total, sink);
        }
        // Stage 2 up to the clamped right edge, once the total is known.
        self.smooth_ready(total, sink);
    }

    /// Takes the median column just written to the ring's newest slot: the
    /// background subtraction and α threshold once frozen, otherwise the
    /// lead-in, freezing the background when it is complete.
    fn median_done(&mut self, total: Option<usize>, sink: &mut impl FnMut(usize, &[f64])) {
        self.med_n += 1;
        if self.frozen {
            self.threshold_next(sink);
        } else {
            self.pre_n += 1;
            if self.pre_n == self.cfg.static_frames || total == Some(self.med_n) {
                self.freeze_background(sink);
            }
        }
    }

    /// Freezes the background as the per-row mean (ascending column order,
    /// matching `row[..n].iter().sum()`) of the lead-in median columns,
    /// then flushes them through subtraction and the α threshold in place.
    fn freeze_background(&mut self, sink: &mut impl FnMut(usize, &[f64])) {
        let n = self.pre_n;
        debug_assert!(n > 0 && self.cols.base == 0);
        for r in 0..self.rows {
            let mut sum = 0.0;
            for k in 0..n {
                sum += self.cols.get(k)[r];
            }
            self.background[r] = sum / n as f64;
        }
        self.frozen = true;
        self.pre_n = 0;
        for _ in 0..n {
            self.threshold_next(sink);
        }
    }

    /// Background subtraction (clamped at zero) plus the α threshold on
    /// median column `thr_n`, pointwise as in the offline chain, then
    /// stage 2 as far as it can run.
    fn threshold_next(&mut self, sink: &mut impl FnMut(usize, &[f64])) {
        let col = self.cols.get_mut(self.thr_n);
        kernels::subtract_clamp_bg(col, &self.background);
        kernels::threshold_zero(col, self.cfg.alpha);
        self.thr_n += 1;
        self.smooth_ready(None, sink);
    }

    /// Stage 2: Gaussian smoothing (two-column lookahead), binarization,
    /// and incremental hole filling for every column that is final.
    fn smooth_ready(&mut self, total: Option<usize>, sink: &mut impl FnMut(usize, &[f64])) {
        loop {
            let c = self.h_n;
            let computable = match total {
                Some(t) => c < t,
                None => c + self.ghalf < self.thr_n,
            };
            if !computable {
                break;
            }
            self.smooth_binarize_column(c, total);
            self.h_n += 1;
            self.cols.trim_to(self.h_n.saturating_sub(self.ghalf));
            self.holes.push_input(sink);
        }
    }

    /// Horizontal then vertical Gaussian pass for column `c` (accumulation
    /// order identical to [`crate::image::gaussian_filter_2d_in_place`]),
    /// then fixed-scale binarization, into the hole filler's input column.
    fn smooth_binarize_column(&mut self, c: usize, total: Option<usize>) {
        // Horizontal pass as one axpy per tap: each element accumulates its
        // taps in ascending k from zero, exactly like the scalar per-row loop
        // (and the offline pass), so the result is bitwise identical.
        self.hcol.fill(0.0);
        for (k, &kv) in self.kernel.iter().enumerate() {
            let mut cc = (c + k).saturating_sub(self.ghalf);
            if let Some(t) = total {
                cc = cc.min(t - 1);
            }
            kernels::axpy(&mut self.hcol, self.cols.get(cc), kv);
        }
        // Vertical pass: clamped convolution down the column, then the
        // fixed-scale binarization, both SIMD-dispatched.
        let out = self.holes.input_mut();
        kernels::conv1d_clamped_into(out, &self.hcol, &self.kernel);
        kernels::binarize(out, self.binarize_at);
    }

    /// Captures the dynamic state of this enhancer, detached from its
    /// config-derived plan (kernel, thresholds, scratch). Paired with an
    /// identically configured enhancer via
    /// [`IncrementalEnhancer::restore_state`], further pushes emit bitwise
    /// the same columns an uninterrupted enhancer would.
    pub fn export_state(&self) -> EnhancerState {
        let raw_base = self.med_n.saturating_sub(MHALF);
        let raw_cols = (raw_base..self.raw_n)
            .map(|i| {
                let mut col = vec![0.0; self.rows];
                kernels::median3_unsort_into(&mut col, &self.sorted[sorted_slot(i, self.rows)]);
                col
            })
            .collect();
        let (pre_bg, thr_base, thr_cols) = if self.frozen {
            (Vec::new(), self.cols.base, self.cols.columns(self.cols.base..self.thr_n))
        } else {
            (self.cols.columns(0..self.pre_n), 0, Vec::new())
        };
        EnhancerState {
            raw_base,
            raw_cols,
            raw_n: self.raw_n,
            med_n: self.med_n,
            pre_bg,
            background: self.frozen.then(|| self.background.clone()),
            thr_base,
            thr_cols,
            thr_n: self.thr_n,
            h_n: self.h_n,
            holes: self.holes.export_state(),
            finished: self.finished,
        }
    }

    /// Overwrites this enhancer's dynamic state with a previously exported
    /// one, validating every internal invariant first so a corrupted or
    /// hand-built state is rejected with an error instead of panicking (or
    /// looping) later. The enhancer must have been built with the same
    /// config and row count the state was exported under.
    pub fn restore_state(&mut self, state: &EnhancerState) -> Result<(), &'static str> {
        let rows = self.rows;
        let col_ok = |cols: &[Vec<f64>]| cols.iter().all(|c| c.len() == rows);
        if !col_ok(&state.raw_cols) || !col_ok(&state.pre_bg) || !col_ok(&state.thr_cols) {
            return Err("enhancer state: column length differs from row count");
        }
        if let Some(bg) = &state.background {
            if bg.len() != rows {
                return Err("enhancer state: background length differs from row count");
            }
            if !state.pre_bg.is_empty() {
                return Err("enhancer state: frozen background with buffered lead-in");
            }
        } else {
            if state.thr_n != 0 || state.h_n != 0 {
                return Err("enhancer state: thresholded columns before background froze");
            }
            if state.pre_bg.len() >= self.cfg.static_frames {
                return Err("enhancer state: lead-in buffer at or past the freeze point");
            }
        }
        // Before the freeze every median column is buffered for the
        // lead-in; after it, every median column is thresholded at once.
        let staged = if state.background.is_some() { state.thr_n } else { state.pre_bg.len() };
        if staged != state.med_n {
            return Err("enhancer state: median count disagrees with its next stage");
        }
        // Every stage runs as far as finality allows before a push returns,
        // so an exported window is exactly the columns the next stage still
        // reads; anything else is not a state this enhancer can reach.
        if state.raw_base + state.raw_cols.len() != state.raw_n
            || state.med_n > state.raw_n
            || state.raw_n > state.med_n + MHALF
            || state.raw_base != state.med_n.saturating_sub(MHALF)
        {
            return Err("enhancer state: inconsistent raw column window");
        }
        if state.thr_base + state.thr_cols.len() != state.thr_n
            || state.h_n > state.thr_n
            || state.thr_n > state.h_n + self.ghalf
            || state.thr_base != state.h_n.saturating_sub(self.ghalf)
        {
            return Err("enhancer state: inconsistent thresholded column window");
        }
        if state.h_n != state.holes.pushed {
            return Err("enhancer state: hole-filler input count mismatch");
        }
        self.holes.restore_state(&state.holes)?;
        for (i, col) in (state.raw_base..).zip(&state.raw_cols) {
            kernels::median3_sort_into(&mut self.sorted[sorted_slot(i, rows)], col);
        }
        self.raw_n = state.raw_n;
        self.med_n = state.med_n;
        self.frozen = state.background.is_some();
        if let Some(bg) = &state.background {
            self.background.copy_from_slice(bg);
            self.cols.restore(state.thr_base, &state.thr_cols);
        } else {
            self.cols.restore(0, &state.pre_bg);
        }
        self.pre_n = state.pre_bg.len();
        self.thr_n = state.thr_n;
        self.h_n = state.h_n;
        self.finished = state.finished;
        Ok(())
    }
}

/// Where raw column `i`'s sorted triples live in
/// [`IncrementalEnhancer`]'s three-slot `sorted` buffer.
fn sorted_slot(i: usize, rows: usize) -> std::ops::Range<usize> {
    let width = 3 * rows;
    (i % 3) * width..(i % 3 + 1) * width
}

/// Plan-independent dynamic state of an [`IncrementalEnhancer`]: retained
/// column windows with their absolute base offsets, the (possibly frozen)
/// static background, per-stage column counters, and the hole filler's
/// union-find arena, captured verbatim so a restored enhancer replays
/// bitwise. Config-derived fields (kernel, thresholds, scratch) and
/// derived data (the median's sorted triples) are absent and rebuilt by the
/// receiving enhancer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnhancerState {
    /// Absolute index of the first retained raw column.
    pub raw_base: usize,
    /// Raw columns retained for the median window.
    pub raw_cols: Vec<Vec<f64>>,
    /// Raw columns received.
    pub raw_n: usize,
    /// Median columns finalized.
    pub med_n: usize,
    /// Median columns buffered until the background freezes.
    pub pre_bg: Vec<Vec<f64>>,
    /// The frozen per-row static background, once estimated.
    pub background: Option<Vec<f64>>,
    /// Absolute index of the first retained thresholded column.
    pub thr_base: usize,
    /// Subtracted + thresholded columns retained for the Gaussian window.
    pub thr_cols: Vec<Vec<f64>>,
    /// Thresholded columns produced.
    pub thr_n: usize,
    /// Columns handed to hole filling.
    pub h_n: usize,
    /// Hole-filler union-find state.
    pub holes: HoleFillerState,
    /// Whether `finish` has run.
    pub finished: bool,
}

/// Background runs `(r0, r1, node)` of one spectrogram column.
pub type ColumnRuns = Vec<(usize, usize, usize)>;

/// An undecided column held back by the hole filler: its pixel data plus
/// its background runs.
pub type PendingColumn = (Vec<f64>, ColumnRuns);

/// Dynamic state of the incremental hole filler: the union-find arena
/// (captured verbatim — compaction only runs on push, so the arena shape is
/// part of the bitwise-replay contract), the newest column's runs, and the
/// undecided column queue.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HoleFillerState {
    /// Union-find parent array (entries always point at equal or higher
    /// ids, so lookups terminate).
    pub parent: Vec<usize>,
    /// Root-indexed: component touches the border.
    pub border: Vec<bool>,
    /// Root-indexed: newest column holding one of the component's runs.
    pub last_col: Vec<usize>,
    /// Background runs `(r0, r1, node)` of the newest pushed column.
    pub frontier: ColumnRuns,
    /// Undecided columns awaiting emission, oldest first.
    pub pending: Vec<PendingColumn>,
    /// Columns pushed so far.
    pub pushed: usize,
    /// Next output column index.
    pub next_emit: usize,
}

/// Absolute-indexed window of retained columns in a fixed ring of flat
/// columns: column `i` lives in slot `i % slots`.
#[derive(Debug)]
struct ColRing {
    width: usize,
    slots: usize,
    /// Absolute index of the first retained column.
    base: usize,
    /// Columns retained.
    len: usize,
    data: Vec<f64>,
}

impl ColRing {
    fn new(width: usize, slots: usize) -> Self {
        ColRing { width, slots, base: 0, len: 0, data: vec![0.0; width * slots] }
    }

    fn slot(&self, i: usize) -> std::ops::Range<usize> {
        debug_assert!(self.base <= i && i < self.base + self.len, "column {i} not retained");
        let s = i % self.slots;
        s * self.width..(s + 1) * self.width
    }

    /// Appends a column and returns its storage to fill.
    fn push_slot(&mut self) -> &mut [f64] {
        assert!(self.len < self.slots, "column ring overflow");
        self.len += 1;
        let range = self.slot(self.base + self.len - 1);
        &mut self.data[range]
    }

    fn get(&self, i: usize) -> &[f64] {
        &self.data[self.slot(i)]
    }

    fn get_mut(&mut self, i: usize) -> &mut [f64] {
        let range = self.slot(i);
        &mut self.data[range]
    }

    /// Drops the columns before `lo`.
    fn trim_to(&mut self, lo: usize) {
        let drop = lo.saturating_sub(self.base).min(self.len);
        self.base += drop;
        self.len -= drop;
    }

    fn clear(&mut self) {
        self.base = 0;
        self.len = 0;
    }

    /// Copies of the retained columns in `range` (state export).
    fn columns(&self, range: std::ops::Range<usize>) -> Vec<Vec<f64>> {
        range.map(|i| self.get(i).to_vec()).collect()
    }

    /// Replaces the window; `cols.len()` must fit the ring (the caller
    /// validates).
    fn restore(&mut self, base: usize, cols: &[Vec<f64>]) {
        self.base = base;
        self.len = 0;
        for col in cols {
            self.push_slot().copy_from_slice(col);
        }
    }
}

/// Union-find nodes the hole filler's arena holds from construction: a
/// word session of a few hundred columns opens about 200–350 components
/// before its first compaction.
const ARENA_CAPACITY: usize = 512;

/// Background runs the hole filler's frontier and undecided-run queue hold
/// from construction: a binarized word column has a handful (at most
/// `rows / 2` are possible, but sizing every session for that would keep
/// kilobytes per session that are never used).
const RUN_CAPACITY: usize = 16;

/// Undecided columns the hole filler queues from construction (a column
/// waits only while a hole spanning it is still open).
const PENDING_COLUMNS: usize = 16;

/// Incremental hole filling: union-find over per-column background runs.
///
/// Equivalent to [`crate::image::fill_holes_in_place`] on a binary (0/1)
/// image: a background pixel is filled iff its 4-connected background
/// component never touches the image border. Components are decided as
/// soon as they either touch the border (decision "keep 0", monotone) or
/// close (no run in the newest column — nothing later can reconnect,
/// decision "fill"). Finished columns are emitted strictly in order.
///
/// A binary column is fully described by its background runs (every other
/// pixel is 1), so undecided columns are held as runs only, and an emitted
/// column is rebuilt as 1 everywhere except its border-connected runs — in
/// the same buffer the input column arrives in.
#[derive(Debug)]
struct HoleFiller {
    rows: usize,
    /// Live union-find nodes: the first `nodes` entries of the arena
    /// arrays below, whose lengths are the arena's capacity.
    nodes: usize,
    parent: Vec<usize>,
    /// Root-indexed: component touches the border.
    border: Vec<bool>,
    /// Root-indexed: newest column holding one of the component's runs.
    last_col: Vec<usize>,
    /// Background runs `(r0, r1, node)` of the newest pushed column.
    frontier: Vec<(usize, usize, usize)>,
    /// Background runs of the undecided columns, oldest column first.
    pending_runs: VecDeque<(usize, usize, usize)>,
    /// Run count of each undecided column, oldest first.
    pending_cols: VecDeque<usize>,
    /// The binary column being pushed, then each column being emitted.
    col: Vec<f64>,
    pushed: usize,
    next_emit: usize,
}

impl HoleFiller {
    fn new(rows: usize) -> Self {
        HoleFiller {
            rows,
            nodes: 0,
            parent: vec![0; ARENA_CAPACITY],
            border: vec![false; ARENA_CAPACITY],
            last_col: vec![0; ARENA_CAPACITY],
            frontier: Vec::with_capacity(RUN_CAPACITY),
            pending_runs: VecDeque::with_capacity(RUN_CAPACITY),
            pending_cols: VecDeque::with_capacity(PENDING_COLUMNS),
            col: vec![0.0; rows],
            pushed: 0,
            next_emit: 0,
        }
    }

    /// Clears every component and pending column, reusing the allocations.
    fn reset(&mut self) {
        self.nodes = 0;
        self.frontier.clear();
        self.pending_runs.clear();
        self.pending_cols.clear();
        self.pushed = 0;
        self.next_emit = 0;
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        self.parent[rb] = ra;
        self.border[ra] |= self.border[rb];
        self.last_col[ra] = self.last_col[ra].max(self.last_col[rb]);
    }

    /// Adds a singleton component. The arena keeps its storage across
    /// resets and compactions and doubles only when full, so a session
    /// allocates only while its component count passes a new high-water
    /// mark above [`ARENA_CAPACITY`].
    fn new_node(&mut self, col: usize, border: bool) -> usize {
        let id = self.nodes;
        if id == self.parent.len() {
            let capacity = 2 * id.max(1);
            self.parent.resize(capacity, 0);
            self.border.resize(capacity, false);
            self.last_col.resize(capacity, 0);
        }
        self.parent[id] = id;
        self.border[id] = border;
        self.last_col[id] = col;
        self.nodes += 1;
        id
    }

    /// The buffer the next binary (0/1) column is written to before
    /// [`HoleFiller::push_input`].
    fn input_mut(&mut self) -> &mut [f64] {
        &mut self.col
    }

    /// Takes the binary column in the input buffer.
    fn push_input(&mut self, sink: &mut impl FnMut(usize, &[f64])) {
        let c = self.pushed;
        self.pushed += 1;
        let mut runs = 0;
        let mut r = 0;
        while r < self.rows {
            if self.col[r] == 0.0 {
                let r0 = r;
                while r + 1 < self.rows && self.col[r + 1] == 0.0 {
                    r += 1;
                }
                let r1 = r;
                let touches_border = r0 == 0 || r1 == self.rows - 1 || c == 0;
                let node = self.new_node(c, touches_border);
                // 4-connectivity: union with row-overlapping runs of the
                // previous column.
                for i in 0..self.frontier.len() {
                    let (p0, p1, pn) = self.frontier[i];
                    if p0 <= r1 && r0 <= p1 {
                        self.union(node, pn);
                        let root = self.find(node);
                        self.last_col[root] = c;
                    }
                }
                self.pending_runs.push_back((r0, r1, node));
                runs += 1;
            }
            r += 1;
        }
        self.frontier.clear();
        let newest = self.pending_runs.len() - runs;
        self.frontier.extend(self.pending_runs.range(newest..).copied());
        self.pending_cols.push_back(runs);
        self.drain(false, sink);
        self.maybe_compact();
    }

    /// Emits pending columns from the front while every run in them is
    /// decided (border, or closed before the newest column).
    fn drain(&mut self, final_flush: bool, sink: &mut impl FnMut(usize, &[f64])) {
        let newest = self.pushed.wrapping_sub(1);
        while let Some(&runs) = self.pending_cols.front() {
            for i in 0..runs {
                let root = self.find(self.pending_runs[i].2);
                if !(self.border[root] || final_flush || self.last_col[root] < newest) {
                    return;
                }
            }
            self.pending_cols.pop_front();
            self.col.fill(1.0);
            for _ in 0..runs {
                let Some((r0, r1, node)) = self.pending_runs.pop_front() else {
                    break;
                };
                let root = self.find(node);
                if self.border[root] {
                    self.col[r0..=r1].fill(0.0);
                }
            }
            sink(self.next_emit, &self.col);
            self.next_emit += 1;
        }
    }

    /// Marks the final column's runs as border-connected (the right image
    /// edge) and flushes everything still pending.
    fn finish(&mut self, sink: &mut impl FnMut(usize, &[f64])) {
        for i in 0..self.frontier.len() {
            let root = self.find(self.frontier[i].2);
            self.border[root] = true;
        }
        self.frontier.clear();
        self.drain(true, sink);
        debug_assert!(self.pending_cols.is_empty());
    }

    fn export_state(&self) -> HoleFillerState {
        let mut runs = self.pending_runs.iter().copied();
        let pending = self
            .pending_cols
            .iter()
            .map(|&n| {
                let col_runs: ColumnRuns = runs.by_ref().take(n).collect();
                let mut data = vec![1.0; self.rows];
                for &(r0, r1, _) in &col_runs {
                    data[r0..=r1].fill(0.0);
                }
                (data, col_runs)
            })
            .collect();
        let n = self.nodes;
        HoleFillerState {
            parent: self.parent[..n].to_vec(),
            border: self.border[..n].to_vec(),
            last_col: self.last_col[..n].to_vec(),
            frontier: self.frontier.clone(),
            pending,
            pushed: self.pushed,
            next_emit: self.next_emit,
        }
    }

    /// Validating restore: rejects arenas whose parent pointers could make
    /// `find` loop or index out of bounds, runs outside `[0, rows)`,
    /// pending pixel data that is not exactly its runs' binary column, and
    /// column counters that disagree with the pending queue.
    fn restore_state(&mut self, state: &HoleFillerState) -> Result<(), &'static str> {
        let rows = self.rows;
        let n = state.parent.len();
        if state.border.len() != n || state.last_col.len() != n {
            return Err("hole filler state: arena array lengths disagree");
        }
        // Live arenas only ever point at equal-or-higher ids (unions root
        // older components under the newest node), which is also exactly
        // what makes the path-halving `find` terminate.
        if state.parent.iter().enumerate().any(|(i, &p)| p < i || p >= n) {
            return Err("hole filler state: parent pointer out of range");
        }
        let runs_ok = |runs: &[(usize, usize, usize)]| {
            runs.iter().all(|&(r0, r1, node)| r0 <= r1 && r1 < rows && node < n)
        };
        if !runs_ok(&state.frontier) {
            return Err("hole filler state: frontier run out of range");
        }
        for (data, runs) in &state.pending {
            if data.len() != rows || !runs_ok(runs) {
                return Err("hole filler state: pending column out of range");
            }
            // Runs ascending and disjoint, and the pixels exactly 0 on them
            // and 1 elsewhere: the binary column the runs describe.
            let mut expect = vec![1.0f64; rows];
            let mut prev_end = None;
            for &(r0, r1, _) in runs {
                if prev_end.is_some_and(|e| r0 <= e) {
                    return Err("hole filler state: pending runs out of order");
                }
                prev_end = Some(r1);
                expect[r0..=r1].fill(0.0);
            }
            if data.iter().zip(&expect).any(|(a, b)| a.to_bits() != b.to_bits()) {
                return Err("hole filler state: pending column disagrees with its runs");
            }
        }
        if state.next_emit + state.pending.len() != state.pushed {
            return Err("hole filler state: column counters disagree");
        }
        // The arena arrays' lengths are its capacity: copy the live prefix.
        if self.parent.len() < n {
            self.parent.resize(n, 0);
            self.border.resize(n, false);
            self.last_col.resize(n, 0);
        }
        self.nodes = n;
        self.parent[..n].copy_from_slice(&state.parent);
        self.border[..n].copy_from_slice(&state.border);
        self.last_col[..n].copy_from_slice(&state.last_col);
        self.frontier.clone_from(&state.frontier);
        self.pending_runs.clear();
        self.pending_cols.clear();
        for (_, runs) in &state.pending {
            self.pending_runs.extend(runs.iter().copied());
            self.pending_cols.push_back(runs.len());
        }
        self.pushed = state.pushed;
        self.next_emit = state.next_emit;
        Ok(())
    }

    /// Rebuilds the union-find arena in place once nothing but the frontier
    /// is live, bounding memory over arbitrarily long sessions: each
    /// frontier component becomes one root, numbered in order of first
    /// appearance.
    fn maybe_compact(&mut self) {
        if !self.pending_cols.is_empty() || self.nodes < 4096 {
            return;
        }
        // Nothing is pending, so the pending-run queue is free to hold each
        // frontier run's `(root, border, last_col)` while the arena is
        // rewritten from id 0.
        let roots = &mut self.pending_runs;
        let f = self.frontier.len();
        for i in 0..f {
            let mut x = self.frontier[i].2;
            while self.parent[x] != x {
                x = self.parent[x];
            }
            roots.push_back((x, usize::from(self.border[x]), self.last_col[x]));
        }
        self.nodes = 0;
        for i in 0..f {
            let (root, border, last_col) = roots[i];
            // The first run of the same component already holds its new id.
            let mut id = self.nodes;
            for j in 0..i {
                if roots[j].0 == root {
                    id = self.frontier[j].2;
                    break;
                }
            }
            if id == self.nodes {
                self.parent[id] = id;
                self.border[id] = border != 0;
                self.last_col[id] = last_col;
                self.nodes += 1;
            }
            self.frontier[i].2 = id;
        }
        roots.clear();
    }
}

/// Convenience: runs a whole spectrogram through the incremental enhancer
/// and reassembles the result (testing / diagnostics; the streaming path
/// consumes columns directly).
pub fn enhance_incrementally(cfg: EnhanceConfig, spec: &Spectrogram) -> Spectrogram {
    let mut out = Spectrogram::zeros(spec.rows(), spec.cols());
    out.set_carrier_row(spec.carrier_row());
    if spec.cols() == 0 {
        return out;
    }
    let mut inc = IncrementalEnhancer::new(cfg, spec.rows());
    let mut cols: Vec<Vec<f64>> = Vec::new();
    let mut sink = |_idx: usize, col: &[f64]| cols.push(col.to_vec());
    for c in 0..spec.cols() {
        inc.push_column(&spec.column(c), &mut sink);
    }
    inc.finish(&mut sink);
    assert_eq!(cols.len(), spec.cols(), "incremental enhancer lost columns");
    for (c, col) in cols.iter().enumerate() {
        for (r, &v) in col.iter().enumerate() {
            out.set(r, c, v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enhance::Enhancer;

    /// Synthetic ROI spectrogram with a carrier, noise floor, a stroke blob,
    /// and a deliberate enclosed hole after binarization.
    fn synthetic(rows: usize, cols: usize, seed: u64) -> Spectrogram {
        let mut s = Spectrogram::zeros(rows, cols);
        let cf = s.carrier_row();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for c in 0..cols {
            for r in 0..rows {
                s.set(r, c, next() * 2.0);
            }
            s.set(cf, c, 900.0);
            if c >= 8 && cols > 14 && c < cols - 4 {
                let k = (c - 8) as f64 / (cols - 12) as f64;
                let peak = cf + 3 + (10.0 * (std::f64::consts::PI * k).sin()) as usize;
                for r in cf + 1..=peak.min(rows - 1) {
                    // Carve a hole in the middle of the blob.
                    let v = if r == cf + 2 && (10..14).contains(&c) { 0.0 } else { 60.0 };
                    s.set(r, c, v);
                }
            }
        }
        s
    }

    fn assert_bitwise_equal(a: &Spectrogram, b: &Spectrogram, label: &str) {
        assert_eq!(a.rows(), b.rows(), "{label}: rows");
        assert_eq!(a.cols(), b.cols(), "{label}: cols");
        for c in 0..a.cols() {
            for r in 0..a.rows() {
                assert!(
                    a.get(r, c) == b.get(r, c),
                    "{label}: cell ({r}, {c}) diverges: {} vs {}",
                    a.get(r, c),
                    b.get(r, c)
                );
            }
        }
    }

    #[test]
    fn incremental_matches_batch_across_shapes() {
        let cfg = EnhanceConfig::streaming();
        let batch = Enhancer::new(cfg);
        for cols in [1usize, 2, 3, 4, 5, 6, 7, 8, 12, 40] {
            for rows in [9usize, 32] {
                let spec = synthetic(rows, cols, (rows * 100 + cols) as u64);
                let offline = batch.enhance(&spec);
                let streamed = enhance_incrementally(cfg, &spec);
                assert_bitwise_equal(&streamed, &offline, &format!("{rows}×{cols}"));
            }
        }
    }

    #[test]
    fn incremental_matches_batch_on_quiet_input() {
        let cfg = EnhanceConfig::streaming();
        let spec = Spectrogram::zeros(24, 30);
        let offline = Enhancer::new(cfg).enhance(&spec);
        let streamed = enhance_incrementally(cfg, &spec);
        assert_bitwise_equal(&streamed, &offline, "quiet");
    }

    #[test]
    fn holes_enclosed_across_many_columns_still_fill() {
        // A long horizontal tube: 1-borders above and below, open for many
        // columns, sealed at both ends — must fill exactly like the batch
        // flood fill, exercising the long-pending drain path.
        let rows = 11;
        let cols = 60;
        let mut spec = Spectrogram::zeros(rows, cols);
        for c in 4..50 {
            for r in 3..8 {
                spec.set(r, c, if (4..7).contains(&r) && (5..49).contains(&c) { 0.0 } else { 60.0 });
            }
        }
        // Feed pre-binarized data through the shared hole filler directly.
        let mut filler = HoleFiller::new(rows);
        let mut got: Vec<Vec<f64>> = Vec::new();
        for c in 0..cols {
            let col: Vec<f64> = (0..rows)
                .map(|r| if spec.get(r, c) > 0.0 { 1.0 } else { 0.0 })
                .collect();
            filler.input_mut().copy_from_slice(&col);
            filler.push_input(&mut |_, col| got.push(col.to_vec()));
        }
        filler.finish(&mut |_, col| got.push(col.to_vec()));
        assert_eq!(got.len(), cols);
        let mut bin = Spectrogram::zeros(rows, cols);
        for (c, col) in got.iter().enumerate() {
            for (r, &v) in col.iter().enumerate() {
                bin.set(r, c, v);
            }
        }
        let mut reference = Spectrogram::zeros(rows, cols);
        for c in 0..cols {
            for r in 0..rows {
                reference.set(r, c, if spec.get(r, c) > 0.0 { 1.0 } else { 0.0 });
            }
        }
        let expected = crate::image::fill_holes(&reference);
        assert_bitwise_equal(&bin, &expected, "tube");
    }

    #[test]
    fn compaction_keeps_long_sessions_bounded_and_correct() {
        let rows = 9;
        let mut filler = HoleFiller::new(rows);
        let mut emitted = 0usize;
        // Alternate small blobs and quiet gaps for many columns; quiet
        // columns are border-connected, so pending drains and compaction
        // can run.
        for c in 0..30_000usize {
            let col: Vec<f64> = (0..rows)
                .map(|r| if c % 7 < 3 && (3..6).contains(&r) { 1.0 } else { 0.0 })
                .collect();
            filler.input_mut().copy_from_slice(&col);
            filler.push_input(&mut |_, _| emitted += 1);
        }
        filler.finish(&mut |_, _| emitted += 1);
        assert_eq!(emitted, 30_000);
        assert!(filler.nodes < 10_000, "union-find arena grew to {}", filler.nodes);
    }

    #[test]
    fn reset_replays_bitwise_and_warm_reset_keeps_background() {
        let cfg = EnhanceConfig::streaming();
        let spec = synthetic(24, 30, 77);
        let fresh = enhance_incrementally(cfg, &spec);

        let mut inc = IncrementalEnhancer::new(cfg, spec.rows());
        let mut sink_null = |_: usize, _: &[f64]| {};
        for c in 0..spec.cols() {
            inc.push_column(&spec.column(c), &mut sink_null);
        }
        inc.finish(&mut sink_null);
        assert!(inc.background_frozen());

        // Cold reset: a second session through the same enhancer is bitwise
        // the fresh run.
        inc.reset();
        assert!(!inc.background_frozen());
        let mut cols: Vec<Vec<f64>> = Vec::new();
        let mut sink = |_: usize, col: &[f64]| cols.push(col.to_vec());
        for c in 0..spec.cols() {
            inc.push_column(&spec.column(c), &mut sink);
        }
        inc.finish(&mut sink);
        assert_eq!(cols.len(), fresh.cols());
        for (c, col) in cols.iter().enumerate() {
            for (r, &v) in col.iter().enumerate() {
                assert!(v == fresh.get(r, c), "cold reset diverges at ({r}, {c})");
            }
        }

        // Warm reset: the background survives, so the same audio replays
        // bitwise (the frozen estimate equals what a fresh lead-in computes).
        inc.reset_keeping_background();
        assert!(inc.background_frozen(), "warm reset must keep the background");
        let mut cols: Vec<Vec<f64>> = Vec::new();
        let mut sink = |_: usize, col: &[f64]| cols.push(col.to_vec());
        for c in 0..spec.cols() {
            inc.push_column(&spec.column(c), &mut sink);
        }
        inc.finish(&mut sink);
        assert_eq!(cols.len(), fresh.cols());
        for (c, col) in cols.iter().enumerate() {
            for (r, &v) in col.iter().enumerate() {
                assert!(v == fresh.get(r, c), "warm reset diverges at ({r}, {c})");
            }
        }
    }

    #[test]
    fn state_roundtrip_resumes_bitwise() {
        let cfg = EnhanceConfig::streaming();
        let spec = synthetic(24, 60, 99);
        let fresh = enhance_incrementally(cfg, &spec);

        // Suspend at points before and after the background freezes and
        // while holes are pending, restore into a fresh enhancer, finish:
        // the concatenated output must be bitwise the uninterrupted run.
        for cut in [1usize, 5, 12, 30, 55] {
            let mut first = IncrementalEnhancer::new(cfg, spec.rows());
            let mut cols: Vec<Vec<f64>> = Vec::new();
            let mut sink = |_: usize, col: &[f64]| cols.push(col.to_vec());
            for c in 0..cut {
                first.push_column(&spec.column(c), &mut sink);
            }
            let state = first.export_state();
            drop(first);
            let mut resumed = IncrementalEnhancer::new(cfg, spec.rows());
            resumed.restore_state(&state).expect("valid exported state");
            for c in cut..spec.cols() {
                resumed.push_column(&spec.column(c), &mut sink);
            }
            resumed.finish(&mut sink);
            assert_eq!(cols.len(), fresh.cols(), "cut {cut}");
            for (c, col) in cols.iter().enumerate() {
                for (r, &v) in col.iter().enumerate() {
                    assert!(v == fresh.get(r, c), "cut {cut} diverges at ({r}, {c})");
                }
            }
        }
    }

    #[test]
    fn restore_rejects_corrupt_state() {
        let cfg = EnhanceConfig::streaming();
        let spec = synthetic(24, 30, 7);
        let mut inc = IncrementalEnhancer::new(cfg, spec.rows());
        let mut sink = |_: usize, _: &[f64]| {};
        for c in 0..20 {
            inc.push_column(&spec.column(c), &mut sink);
        }
        let good = inc.export_state();
        let mut fresh = IncrementalEnhancer::new(cfg, spec.rows());
        assert!(fresh.restore_state(&good).is_ok());

        let mut bad = good.clone();
        bad.raw_cols[0].pop();
        assert!(fresh.restore_state(&bad).is_err(), "short column accepted");

        let mut bad = good.clone();
        bad.med_n = bad.raw_n + 1;
        assert!(fresh.restore_state(&bad).is_err(), "counter overrun accepted");

        let mut bad = good.clone();
        if !bad.holes.parent.is_empty() {
            bad.holes.parent[0] = usize::MAX;
            assert!(fresh.restore_state(&bad).is_err(), "wild parent accepted");
        }

        let mut bad = good.clone();
        bad.holes.pushed += 1;
        assert!(fresh.restore_state(&bad).is_err(), "queue mismatch accepted");

        // Frozen, with a median column not yet thresholded: the raw window
        // and the thresholded window are each consistent on their own.
        assert!(good.background.is_some());
        let mut bad = good;
        bad.raw_n += 1;
        bad.med_n += 1;
        bad.raw_base += 1;
        bad.raw_cols.push(bad.raw_cols[0].clone());
        bad.raw_cols.remove(0);
        assert!(fresh.restore_state(&bad).is_err(), "unthresholded median accepted");

        // Unfrozen, with a median column missing from the lead-in buffer.
        let mut lead_in = IncrementalEnhancer::new(cfg, spec.rows());
        for c in 0..3 {
            lead_in.push_column(&spec.column(c), &mut sink);
        }
        let early = lead_in.export_state();
        assert!(early.background.is_none() && early.pre_bg.len() >= 2);
        assert!(fresh.restore_state(&early).is_ok());
        let mut bad = early;
        bad.pre_bg.pop();
        assert!(fresh.restore_state(&bad).is_err(), "short lead-in accepted");
    }

    #[test]
    #[should_panic(expected = "requires Normalization::FixedScale")]
    fn rejects_global_normalization() {
        IncrementalEnhancer::new(EnhanceConfig::paper(), 8);
    }

    #[test]
    #[should_panic(expected = "burst suppression")]
    fn rejects_burst_suppression() {
        let cfg = EnhanceConfig {
            burst_suppression: Some(crate::burst::BurstConfig::nominal()),
            ..EnhanceConfig::streaming()
        };
        IncrementalEnhancer::new(cfg, 8);
    }
}
