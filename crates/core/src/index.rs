//! The columnar index of a namespace's feature rows (DESIGN.md §41): how
//! the `Dynamic/`, `Static/` and `CostFactor/` rows are parsed where they
//! are stored, joined by job id into a [`ColumnarIndex`], and kept current
//! by folding the writes acknowledged since into a new one. The store
//! reads the rows and holds the snapshot (`store.rs`); everything the
//! index is made of, and its stage-1 sweep, is here.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::iter::Peekable;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use bytes::Bytes;

use cfstore::encoding::decode_f64;
use cfstore::RowView;
use mlmatch::{DimPrep, MinMaxNormalizer};
use profiler::CostFactors;
use staticanalysis::{Cfg, SideFeatures, MAP_CATEGORICAL, REDUCE_CATEGORICAL};

use crate::codec::decode_cfg;
use crate::store::{
    job_id_of, ProfileStoreError, StoredStatics, FAMILY, HAS_REDUCE_COLUMN, INPUT_BYTES_COLUMN,
    MAP_CFG_COLUMN, MAP_DYNAMIC_COLUMNS, RED_CFG_COLUMN, RED_DYNAMIC_COLUMNS,
};

/// Rows the stage-1 sweep takes at a time: eight f64s fill one 64-byte
/// cache line and one AVX-512 register (two AVX2 ones), and LLVM reliably
/// autovectorizes fixed-trip-count loops of this width.
const SWEEP_LANES: usize = 8;

const MAP_DIMS: usize = MAP_DYNAMIC_COLUMNS.len();
const RED_DIMS: usize = RED_DYNAMIC_COLUMNS.len();

/// A columnar, contiguous in-memory projection of the store's numeric
/// feature rows, in `Dynamic/` key (= lexicographic job id) order.
///
/// Stage 1 of the matcher is a dense distance sweep over every stored
/// profile; doing it over contiguous columns replaces one B-tree
/// traversal + column decode per row with a linear scan of a few cache
/// lines per candidate. Each dynamic feature is held once, as one column
/// per dimension: the sweep reads eight rows of a column at a time, and a
/// row's accessor gathers its values across the columns. The statics and
/// cost factors ride along so the later stages become array lookups
/// instead of per-job point-gets. The stored rows remain the oracle:
/// property tests assert that every index row equals point reads of them
/// and that the sweep's survivors equal a pushed-down
/// [`ProfileStore::filter_dynamic`](crate::ProfileStore::filter_dynamic)
/// scan's.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnarIndex {
    job_ids: Vec<Arc<str>>,
    /// One column per `MAP_DYNAMIC_COLUMNS` dimension, `len()` values each.
    map_cols: [Vec<f64>; MAP_DIMS],
    /// One column per `RED_DYNAMIC_COLUMNS` dimension; 0.0 in the rows of
    /// map-only jobs (masked by `has_reduce`).
    red_cols: [Vec<f64>; RED_DIMS],
    has_reduce: Vec<bool>,
    /// Row-major `len() x CostFactors::names().len()`.
    cost: Vec<f64>,
    input_bytes: Vec<f64>,
    /// Per row, an id into `statics`; [`NO_STATICS`] for a job without a
    /// `Static/` row.
    statics_id: Vec<u32>,
    /// The distinct static features of the rows, numbered in order of
    /// first appearance — so the table, like every other field, is a
    /// function of the rows alone, however the index came to hold them.
    statics: Arc<StaticsTable>,
}

/// `statics_id` of a row whose job has no `Static/` row.
const NO_STATICS: u32 = u32::MAX;

/// The raw cells of one `Static/` row, `(column, value)` sorted by column:
/// what static features are interned on. Jobs of one program share them
/// byte for byte, so a store of many profiles per job decodes — and the
/// matcher compares — each distinct CFG once. Copied out of the block or
/// row they were read from, so an index keeps no block alive.
type StaticCells = Arc<[(Bytes, Bytes)]>;

/// Distinct sets of `Static/` cells, numbered in order of first
/// appearance, each with its [`hash_cells`], and found by it.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct CellSets {
    sets: Vec<(u64, StaticCells)>,
    ids: HashMap<u64, Vec<u32>>,
}

impl CellSets {
    /// The id of the set whose cells are `cells`, which hash to `hash`.
    fn find<'a>(
        &self,
        hash: u64,
        cells: impl Iterator<Item = (&'a [u8], &'a [u8])> + Clone,
    ) -> Option<u32> {
        let ids = self.ids.get(&hash)?;
        ids.iter()
            .copied()
            .find(|&id| self.holds(id, cells.clone()))
    }

    /// Whether set `id`'s cells are `cells`.
    fn holds<'a>(&self, id: u32, mut cells: impl Iterator<Item = (&'a [u8], &'a [u8])>) -> bool {
        let mut set = self.sets[id as usize].1.iter();
        set.all(|(c, v)| cells.next() == Some((&c[..], &v[..]))) && cells.next().is_none()
    }

    fn push(&mut self, hash: u64, cells: StaticCells) -> u32 {
        let id = self.sets.len() as u32;
        self.ids.entry(hash).or_default().push(id);
        self.sets.push((hash, cells));
        id
    }
}

/// The distinct static features of an index's rows, numbered in order of
/// first appearance: their cells, and each set decoded.
#[derive(Debug, Default, PartialEq)]
struct StaticsTable {
    cells: CellSets,
    decoded: Vec<Arc<StoredStatics>>,
}

/// The `(column, value)` cells of a row's family, in column order.
pub(crate) fn family_cells<'a>(
    row: &RowView<'a>,
) -> impl Iterator<Item = (&'a [u8], &'a [u8])> + Clone {
    let cells = row.cells.iter().filter(|c| c.family == FAMILY.as_bytes());
    cells.map(|c| (c.column, c.value))
}

/// The latest value of a row's `column`.
fn cell<'a>(row: &RowView<'a>, column: &str) -> Option<&'a [u8]> {
    family_cells(row).find_map(|(c, v)| (c == column.as_bytes()).then_some(v))
}

pub(crate) fn copied<'a>(cells: impl Iterator<Item = (&'a [u8], &'a [u8])>) -> StaticCells {
    let copy = |(c, v): (&[u8], &[u8])| (Bytes::copy_from_slice(c), Bytes::copy_from_slice(v));
    cells.map(copy).collect()
}

/// A hash of cells for [`CellSets`], keyed once per process so that cells
/// a job's code determines cannot be made to collide.
fn hash_cells<'a>(cells: impl Iterator<Item = (&'a [u8], &'a [u8])>) -> u64 {
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    let mut hasher = KEYS.get_or_init(RandomState::new).build_hasher();
    cells.for_each(|cell| cell.hash(&mut hasher));
    hasher.finish()
}

/// Decode a `Static/` row from its cells (sorted by column).
pub(crate) fn decode_statics(cells: &[(Bytes, Bytes)]) -> Result<StoredStatics, ProfileStoreError> {
    let value = |column: &str| {
        cells
            .binary_search_by(|(c, _)| c.as_ref().cmp(column.as_bytes()))
            .ok()
            .map(|i| &cells[i].1)
    };
    let read_side =
        |names: &[&'static str], cfg_col: &str| -> Result<SideFeatures, ProfileStoreError> {
            let mut categorical = Vec::with_capacity(names.len());
            for name in names {
                let v = value(name)
                    .map(|b| String::from_utf8_lossy(b).to_string())
                    .unwrap_or_else(|| "NULL".to_string());
                categorical.push((*name, v));
            }
            let cfg: Option<Cfg> = match value(cfg_col) {
                Some(bytes) => Some(decode_cfg(bytes)?),
                None => None,
            };
            Ok(SideFeatures { categorical, cfg })
        };
    Ok(StoredStatics {
        map: read_side(&MAP_CATEGORICAL, MAP_CFG_COLUMN)?,
        reduce: read_side(&REDUCE_CATEGORICAL, RED_CFG_COLUMN)?,
    })
}

/// The cost factors a row holds, in [`CostFactors::NAMES`] order.
const COSTS: usize = CostFactors::NAMES.len();

pub(crate) fn decode_cost_factors(
    row: &RowView<'_>,
    job_id: &str,
) -> Result<[f64; COSTS], ProfileStoreError> {
    let mut costs = [0.0; COSTS];
    for (v, name) in costs.iter_mut().zip(CostFactors::NAMES) {
        let bytes = cell(row, name).ok_or_else(|| {
            ProfileStoreError::Corrupt(format!("CostFactor/{job_id} missing {name}"))
        })?;
        *v = decode_f64(bytes)?;
    }
    Ok(costs)
}

/// The numbers of a job's `Dynamic/` row.
#[derive(Debug, Default)]
pub(crate) struct Dynamic {
    pub(crate) map_dyn: [f64; MAP_DIMS],
    pub(crate) red_dyn: Option<[f64; RED_DIMS]>,
    pub(crate) input_bytes: f64,
}

impl Dynamic {
    /// Decoded in place from the row's cells; `None` if a column the row
    /// needs is missing or does not decode.
    pub(crate) fn parse(row: &RowView<'_>) -> Option<Dynamic> {
        let f64s = |columns: &[&str], out: &mut [f64]| {
            for (v, c) in out.iter_mut().zip(columns) {
                *v = decode_f64(cell(row, c)?).ok()?;
            }
            Some(())
        };
        let mut dynamic = Dynamic::default();
        let mut flags = [0.0; 2];
        f64s(&MAP_DYNAMIC_COLUMNS, &mut dynamic.map_dyn)?;
        f64s(&[HAS_REDUCE_COLUMN, INPUT_BYTES_COLUMN], &mut flags)?;
        if flags[0] > 0.5 {
            let red = dynamic.red_dyn.insert([0.0; RED_DIMS]);
            f64s(&RED_DYNAMIC_COLUMNS, red)?;
        }
        dynamic.input_bytes = flags[1];
        Some(dynamic)
    }
}

/// The first `N` of `values`, zero-padded: the columns a put writes of
/// them, by `zip`.
fn array<const N: usize>(values: &[f64]) -> [f64; N] {
    let mut out = [0.0; N];
    out.iter_mut().zip(values).for_each(|(o, v)| *o = *v);
    out
}

/// One job's row of the index as an acknowledged write leaves it behind
/// as a delta: its `Static/` cells are the row's once folded
/// ([`StaticCells`]), and only the batch's, in write order, before.
pub(crate) struct IndexRow<S = StaticCells> {
    dynamic: Dynamic,
    cost: [f64; COSTS],
    statics: S,
}

/// What one `put_profile` batch wrote, as far as the index cares.
pub(crate) type WrittenRow = IndexRow<Vec<(Bytes, Bytes)>>;

impl WrittenRow {
    /// The row a scan of a batch's cells would decode, from the values
    /// the batch wrote.
    pub(crate) fn new(
        map_dyn: &[f64],
        red_dyn: Option<&[f64]>,
        input_bytes: f64,
        cost: &[f64],
        statics: Vec<(Bytes, Bytes)>,
    ) -> WrittenRow {
        let (map_dyn, red_dyn, cost) = (array(map_dyn), red_dyn.map(array), array(cost));
        let dynamic = Dynamic {
            map_dyn,
            red_dyn,
            input_bytes,
        };
        IndexRow {
            dynamic,
            cost,
            statics,
        }
    }

    /// The job's row once the batch is written over `held`, the `Static/`
    /// cells its row held: a put rewrites columns, so each it wrote takes
    /// its last written value, and each it left out keeps the old one, in
    /// the table and so here.
    fn over(self, held: &[(Bytes, Bytes)]) -> IndexRow {
        let mut cells: BTreeMap<Bytes, Bytes> = held.iter().cloned().collect();
        cells.extend(self.statics);
        let statics = cells.into_iter().collect();
        let (dynamic, cost) = (self.dynamic, self.cost);
        IndexRow {
            dynamic,
            cost,
            statics,
        }
    }
}

/// One region's rows of one feature prefix, parsed where they are stored:
/// the rows' job ids one after another, where each ends, and what the
/// index takes from each row. Parsing stops at the first row that does
/// not parse; its error, with the row's job id, waits until every scan
/// has verified its cells.
#[derive(Default)]
pub(crate) struct Part<T> {
    ids: String,
    ends: Vec<usize>,
    rows: Vec<T>,
    error: Option<(Box<[u8]>, ProfileStoreError)>,
}

impl<T> Part<T> {
    fn push(&mut self, id: &[u8], parsed: Result<(&str, T), ProfileStoreError>) {
        match parsed {
            _ if self.error.is_some() => {}
            Ok((id, row)) => {
                self.ids.push_str(id);
                self.ends.push(self.ids.len());
                self.rows.push(row);
            }
            Err(e) => self.error = Some((id.into(), e)),
        }
    }

    fn rows(&self) -> impl Iterator<Item = (&str, &T)> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        let ids = starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.ids[start..end]);
        ids.zip(&self.rows)
    }
}

pub(crate) fn parse_dynamic(part: &mut Part<Dynamic>, id: &[u8], row: &RowView<'_>) {
    let parsed = std::str::from_utf8(id).ok().zip(Dynamic::parse(row));
    let parsed = parsed.ok_or_else(|| {
        let key = String::from_utf8_lossy(row.key);
        ProfileStoreError::Corrupt(format!("undecodable Dynamic row {key}"))
    });
    part.push(id, parsed);
}

pub(crate) fn parse_cost(part: &mut Part<[f64; COSTS]>, id: &[u8], row: &RowView<'_>) {
    let parsed = job_id_of(id).and_then(|job_id| Ok((job_id, decode_cost_factors(row, job_id)?)));
    part.push(id, parsed);
}

/// A `Static/` row's set of cells: copied out only if the part has not
/// met the set before. A row whose job id is not UTF-8 has no `Dynamic/`
/// row to join, and is left out.
pub(crate) fn parse_static((part, sets): &mut (Part<u32>, CellSets), id: &[u8], row: &RowView<'_>) {
    let Ok(id) = std::str::from_utf8(id) else {
        return;
    };
    let cells = family_cells(row);
    // The jobs of one program mostly lie together: try the last row's set
    // before hashing.
    let last = part
        .rows
        .last()
        .filter(|&&set| sets.holds(set, cells.clone()));
    let set = match last {
        Some(&set) => set,
        None => {
            let hash = hash_cells(cells.clone());
            match sets.find(hash, cells.clone()) {
                Some(set) => set,
                None => sets.push(hash, copied(cells)),
            }
        }
    };
    part.push(id.as_bytes(), Ok((id, set)));
}

/// The first error of `parts` in key order, taken out of its part.
fn first_error<T>(parts: &mut [Part<T>]) -> Option<(Box<[u8]>, ProfileStoreError)> {
    let errors = parts.iter().enumerate();
    let (_, p) = errors
        .filter_map(|(p, part)| Some((&part.error.as_ref()?.0, p)))
        .min()?;
    parts[p].error.take()
}

/// The rows of runs each sorted by job id, in job-id order: one after
/// another and sorted, which costs a comparison a row when the runs already
/// lie in order, as a single store's regions do. No id is in two runs.
fn in_order<'a, T, I: Iterator<Item = (&'a str, T)>>(
    runs: impl Iterator<Item = I> + Clone,
) -> Vec<(&'a str, T)> {
    let mut rows = Vec::with_capacity(runs.clone().map(|run| run.size_hint().0).sum());
    rows.extend(runs.flatten());
    rows.sort_unstable_by_key(|&(id, _)| id);
    rows
}

/// The row of `job_id` in `rows`, sorted by job id, skipping the rows
/// before it: one step of a merge-join by job id.
fn joined<'a, T>(
    rows: &mut Peekable<impl Iterator<Item = (&'a str, T)>>,
    job_id: &str,
) -> Option<T> {
    while rows.next_if(|(id, _)| *id < job_id).is_some() {}
    rows.next_if(|(id, _)| *id == job_id).map(|(_, row)| row)
}

/// The index of the parsed `Dynamic/`, `Static/` and `CostFactor/` parts
/// ([`parse_dynamic`], [`parse_static`], [`parse_cost`]), merge-joined by
/// job id. What did not parse fails the build in the order the rows are
/// read in: the `CostFactor/` rows first, then job by job.
pub(crate) fn build(
    mut dynamic: Vec<Part<Dynamic>>,
    statics: Vec<(Part<u32>, CellSets)>,
    mut costs: Vec<Part<[f64; COSTS]>>,
) -> Result<ColumnarIndex, ProfileStoreError> {
    if let Some((_, e)) = first_error(&mut costs) {
        return Err(e);
    }
    let mut costs = in_order(costs.iter().map(Part::rows))
        .into_iter()
        .peekable();
    // A part's set is interned once: its id in the index, by part.
    let mut ids: Vec<Vec<u32>> = statics
        .iter()
        .map(|(_, sets)| vec![NO_STATICS; sets.sets.len()])
        .collect();
    let by_part = statics.iter().enumerate();
    let by_part =
        by_part.map(|(p, (part, _))| part.rows().map(move |(id, &set)| (id, (p, set as usize))));
    let mut static_rows = in_order(by_part).into_iter().peekable();
    // A part's rows stop at its error, which fails the build where its
    // key falls among the other parts' rows.
    let mut failed = first_error(&mut dynamic);
    let dynamic = in_order(dynamic.iter().map(Part::rows));
    let empty = Arc::default();
    let mut builder = IndexBuilder::new(dynamic.len(), &empty);
    for (job_id, dynamic) in dynamic {
        if let Some((_, e)) = failed.take_if(|(at, _)| **at < *job_id.as_bytes()) {
            return Err(e);
        }
        let cost = joined(&mut costs, job_id)
            .ok_or_else(|| ProfileStoreError::Corrupt(format!("no CostFactor row for {job_id}")))?;
        let statics = match joined(&mut static_rows, job_id) {
            Some((p, set)) if ids[p][set] == NO_STATICS => {
                let (hash, cells) = &statics[p].1.sets[set];
                ids[p][set] = builder.intern(*hash, cells)?;
                ids[p][set]
            }
            Some((p, set)) => ids[p][set],
            None => NO_STATICS,
        };
        builder.push(Arc::from(job_id), dynamic, cost, statics);
    }
    match failed {
        Some((_, e)) => Err(e),
        None => Ok(builder.finish()),
    }
}

/// Appends rows in key order — decoded ones, or runs of an existing
/// index's rows — renumbering static features by first appearance.
struct IndexBuilder<'a> {
    out: ColumnarIndex,
    /// The table of the index rows are copied from (empty for a build).
    base: &'a Arc<StaticsTable>,
    /// `base` id → id in `table`, [`NO_STATICS`] until first carried.
    remap: Vec<u32>,
    table: StaticsTable,
    /// Whether `table` holds a set that `base` does not.
    fresh: bool,
}

impl<'a> IndexBuilder<'a> {
    fn new(rows: usize, base: &'a Arc<StaticsTable>) -> Self {
        IndexBuilder {
            out: ColumnarIndex {
                job_ids: Vec::with_capacity(rows),
                map_cols: std::array::from_fn(|_| Vec::with_capacity(rows)),
                red_cols: std::array::from_fn(|_| Vec::with_capacity(rows)),
                has_reduce: Vec::with_capacity(rows),
                cost: Vec::with_capacity(rows * COSTS),
                input_bytes: Vec::with_capacity(rows),
                statics_id: Vec::with_capacity(rows),
                statics: Arc::default(),
            },
            base,
            remap: vec![NO_STATICS; base.decoded.len()],
            table: StaticsTable::default(),
            fresh: false,
        }
    }

    /// The new id of `base`'s set `old`.
    fn carry(&mut self, old: u32) -> u32 {
        let slot = &mut self.remap[old as usize];
        if *slot == NO_STATICS {
            let (hash, cells) = &self.base.cells.sets[old as usize];
            *slot = self.table.cells.push(*hash, Arc::clone(cells));
            self.table
                .decoded
                .push(Arc::clone(&self.base.decoded[old as usize]));
        }
        *slot
    }

    /// The id of `cells`, which hash to `hash`, decoding them if no row so
    /// far carried them: one decode per distinct set, however many jobs
    /// share it.
    fn intern(&mut self, hash: u64, cells: &StaticCells) -> Result<u32, ProfileStoreError> {
        let borrowed = || cells.iter().map(|(c, v)| (&c[..], &v[..]));
        if let Some(id) = self.table.cells.find(hash, borrowed()) {
            return Ok(id);
        }
        if let Some(old) = self.base.cells.find(hash, borrowed()) {
            return Ok(self.carry(old));
        }
        let decoded = Arc::new(decode_statics(cells)?);
        self.fresh = true;
        self.table.decoded.push(decoded);
        Ok(self.table.cells.push(hash, Arc::clone(cells)))
    }

    fn push(&mut self, job_id: Arc<str>, dynamic: &Dynamic, cost: &[f64], statics: u32) {
        let out = &mut self.out;
        out.job_ids.push(job_id);
        let values = dynamic.map_dyn.into_iter();
        let values = values.chain(dynamic.red_dyn.unwrap_or_default());
        let cols = out.map_cols.iter_mut().chain(&mut out.red_cols);
        cols.zip(values).for_each(|(col, v)| col.push(v));
        out.has_reduce.push(dynamic.red_dyn.is_some());
        out.cost.extend_from_slice(cost);
        out.input_bytes.push(dynamic.input_bytes);
        out.statics_id.push(statics);
    }

    /// Append a delta's row, interning its statics.
    fn push_row(&mut self, job_id: Arc<str>, row: &IndexRow) -> Result<(), ProfileStoreError> {
        let hash = hash_cells(row.statics.iter().map(|(c, v)| (&c[..], &v[..])));
        let statics = self.intern(hash, &row.statics)?;
        self.push(job_id, &row.dynamic, &row.cost, statics);
        Ok(())
    }

    /// Append `rows` of `from` (whose table is `base`) as they are.
    fn copy_rows(&mut self, from: &ColumnarIndex, rows: Range<usize>) {
        for &old in &from.statics_id[rows.clone()] {
            let id = if old == NO_STATICS {
                old
            } else {
                self.carry(old)
            };
            self.out.statics_id.push(id);
        }
        let out = &mut self.out;
        out.job_ids.extend_from_slice(&from.job_ids[rows.clone()]);
        let cols = out.map_cols.iter_mut().chain(&mut out.red_cols);
        for (col, from) in cols.zip(from.map_cols.iter().chain(&from.red_cols)) {
            col.extend_from_slice(&from[rows.clone()]);
        }
        out.has_reduce
            .extend_from_slice(&from.has_reduce[rows.clone()]);
        out.cost
            .extend_from_slice(&from.cost[rows.start * COSTS..rows.end * COSTS]);
        out.input_bytes.extend_from_slice(&from.input_bytes[rows]);
    }

    fn finish(self) -> ColumnarIndex {
        let mut out = self.out;
        // The usual merge changes rows, not the set or order of distinct
        // statics: keep the table, and its hash map, as they are.
        let unchanged = !self.fresh && self.remap.iter().enumerate().all(|(i, &id)| id == i as u32);
        out.statics = if unchanged {
            Arc::clone(self.base)
        } else {
            Arc::new(self.table)
        };
        out
    }
}

/// Rows of `cols` (one column per dimension, in `prep`'s order) whose
/// distance to the prepared query is within `theta`, in row order; a row
/// where `mask` is false is dropped after its distance is taken. A row's
/// distance takes the floating-point operations of
/// [`MinMaxNormalizer::distance`] in its order — dimensions summed in
/// order, then `acc.sqrt() <= theta` — so the survivors are those of the
/// pushed-down scan, bit for bit. Rows go eight at a time, dimensions
/// outer and rows inner, which the compiler vectorizes; the last
/// `len % 8` go one by one.
fn sweep(cols: &[Vec<f64>], prep: &[DimPrep], theta: f64, mask: Option<&[bool]>) -> Vec<usize> {
    let len = cols.first().map_or(0, Vec::len);
    let keep = |row: usize, acc: f64| acc.sqrt() <= theta && mask.is_none_or(|m| m[row]);
    let mut out = Vec::new();
    let full = len - len % SWEEP_LANES;
    for base in (0..full).step_by(SWEEP_LANES) {
        let mut acc = [0.0f64; SWEEP_LANES];
        for (col, p) in cols.iter().zip(prep) {
            let ys = &col[base..base + SWEEP_LANES];
            match *p {
                // The hot regime: branch-free per row, vectorizes.
                DimPrep::Scaled { min, range, nx } => {
                    for (a, y) in acc.iter_mut().zip(ys) {
                        let dd = nx - ((y - min) / range).clamp(0.0, 1.0);
                        *a += dd * dd;
                    }
                }
                // Degenerate dimensions carry a data-dependent branch;
                // rare (near-empty stores), so scalar is fine.
                DimPrep::Degenerate { .. } => {
                    for (a, y) in acc.iter_mut().zip(ys) {
                        let dd = p.delta(*y);
                        *a += dd * dd;
                    }
                }
            }
        }
        for (row, acc) in (base..).zip(acc) {
            if keep(row, acc) {
                out.push(row);
            }
        }
    }
    for row in full..len {
        let mut acc = 0.0;
        for (col, p) in cols.iter().zip(prep) {
            let dd = p.delta(col[row]);
            acc += dd * dd;
        }
        if keep(row, acc) {
            out.push(row);
        }
    }
    out
}

impl ColumnarIndex {
    /// This index with the acknowledged writes `pending` applied, in their
    /// order — `None` for a delete. A later write to a job replaces the
    /// earlier one, and a put's `Static/` cells are laid over the cells
    /// the job's row held. Then one pass over both in key order, copying
    /// the runs of rows between deltas; reads no store row. Fails if a
    /// delta carries `Static/` cells that do not decode.
    pub(crate) fn merged(
        &self,
        pending: Vec<(Arc<str>, Option<WrittenRow>)>,
    ) -> Result<ColumnarIndex, ProfileStoreError> {
        // By job id, which is the order the merge wants.
        let mut deltas: BTreeMap<Arc<str>, Option<IndexRow>> = BTreeMap::new();
        for (job_id, written) in pending {
            let row = written.map(|row| {
                let held = match deltas.get(&job_id) {
                    Some(delta) => delta.as_ref().map(|r| &r.statics),
                    None => self.static_cells(&job_id),
                };
                row.over(held.map_or(&[], |cells| &cells[..]))
            });
            deltas.insert(job_id, row);
        }
        let mut builder = IndexBuilder::new(self.len() + deltas.len(), &self.statics);
        let mut next = 0;
        for (job_id, delta) in &deltas {
            let at = next + self.job_ids[next..].partition_point(|j| j < job_id);
            builder.copy_rows(self, next..at);
            // The job's old row, if it had one, is replaced or dropped.
            next = at + usize::from(self.job_ids.get(at) == Some(job_id));
            if let Some(row) = delta {
                builder.push_row(Arc::clone(job_id), row)?;
            }
        }
        builder.copy_rows(self, next..self.len());
        Ok(builder.finish())
    }

    /// The `Static/` cells of `job_id`'s row, if it is indexed and has them.
    fn static_cells(&self, job_id: &str) -> Option<&StaticCells> {
        let row = self.job_ids.binary_search_by(|j| (**j).cmp(job_id)).ok()?;
        let sets = &self.statics.cells.sets;
        sets.get(self.statics_id[row] as usize)
            .map(|(_, cells)| cells)
    }

    pub fn len(&self) -> usize {
        self.job_ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.job_ids.is_empty()
    }

    pub fn job_id(&self, row: usize) -> &str {
        &self.job_ids[row]
    }

    /// The row's map-side dynamic features, gathered from the columns.
    pub fn map_dyn(&self, row: usize) -> [f64; MAP_DIMS] {
        self.map_cols.each_ref().map(|col| col[row])
    }

    /// `None` for map-only jobs (which cannot serve a reduce side).
    pub fn red_dyn(&self, row: usize) -> Option<[f64; RED_DIMS]> {
        self.has_reduce[row].then(|| self.red_cols.each_ref().map(|col| col[row]))
    }

    pub fn cost_factors(&self, row: usize) -> &[f64] {
        &self.cost[row * COSTS..(row + 1) * COSTS]
    }

    pub fn input_bytes(&self, row: usize) -> f64 {
        self.input_bytes[row]
    }

    pub fn statics(&self, row: usize) -> Option<&StoredStatics> {
        let decoded = &self.statics.decoded;
        decoded.get(self.statics_id[row] as usize).map(Arc::as_ref)
    }

    /// Which of the [`Self::distinct_statics`] static-feature sets the
    /// row carries (`None`: the job has no `Static/` row). Rows with equal
    /// ids have equal [`Self::statics`], so whatever is computed from a
    /// row's statics alone needs computing once per id.
    pub fn statics_id(&self, row: usize) -> Option<usize> {
        let id = self.statics_id[row];
        (id != NO_STATICS).then_some(id as usize)
    }

    /// How many distinct static-feature sets the rows carry; every
    /// [`Self::statics_id`] is below it.
    pub fn distinct_statics(&self) -> usize {
        self.statics.decoded.len()
    }

    /// Stage-1 sweep over the map-side dynamic features: rows whose
    /// normalized Euclidean distance to `q` is within `theta`, in store
    /// order — the rows a pushed-down scan filtering on
    /// [`MinMaxNormalizer::distance`] returns.
    pub fn sweep_map_dyn(&self, bounds: &MinMaxNormalizer, q: &[f64], theta: f64) -> Vec<usize> {
        sweep(&self.map_cols, &bounds.prepare(q), theta, None)
    }

    /// Stage-1 sweep over the reduce-side dynamic features; map-only rows
    /// never survive.
    pub fn sweep_red_dyn(&self, bounds: &MinMaxNormalizer, q: &[f64], theta: f64) -> Vec<usize> {
        let prep = bounds.prepare(q);
        sweep(&self.red_cols, &prep, theta, Some(&self.has_reduce))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sweep against one [`MinMaxNormalizer::distance`] per row, at
    /// every length from 0 to 17 rows: no block of eight, one, two, and a
    /// tail of every size. The second dimension is degenerate (its bounds
    /// span nothing), with stored values equal to, below and above the
    /// query's; the mask drops rows that would otherwise survive, in the
    /// blocks and in the tail.
    #[test]
    fn sweep_matches_a_per_row_distance_at_every_length() {
        let bounds = MinMaxNormalizer {
            mins: vec![0.0, 5.0, -1.0],
            maxs: vec![1.0, 5.0, 1.0],
        };
        let (q, theta) = ([0.4, 5.0, 0.0], 0.6);
        let prep = bounds.prepare(&q);
        assert!(matches!(prep[1], DimPrep::Degenerate { .. }));
        let row = |r: usize| {
            [
                (r % 5) as f64 / 4.0,
                [5.0, 4.0, 5.5][r % 3],
                (r % 7) as f64 / 3.0,
            ]
        };
        let (mut in_tail, mut masked) = (0, 0);
        for len in 0..=17 {
            let cols: Vec<Vec<f64>> = (0..3)
                .map(|d| (0..len).map(|r| row(r)[d]).collect())
                .collect();
            let mask: Vec<bool> = (0..len).map(|r| r % 4 != 1).collect();
            let near: Vec<usize> = (0..len)
                .filter(|&r| bounds.distance(&q, &row(r)) <= theta)
                .collect();
            let kept: Vec<usize> = near.iter().copied().filter(|&r| mask[r]).collect();
            assert_eq!(sweep(&cols, &prep, theta, None), near, "{len} rows");
            assert_eq!(sweep(&cols, &prep, theta, Some(&mask)), kept, "{len} rows");
            in_tail += near.iter().filter(|&&r| r >= len / 8 * 8).count();
            masked += near.len() - kept.len();
        }
        // The cases reach what they are for.
        assert!(in_tail > 0 && masked > 0, "{in_tail} {masked}");
    }
}
