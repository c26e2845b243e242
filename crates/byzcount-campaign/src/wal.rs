//! The campaign store: an append-only write-ahead log of per-cell
//! results plus a periodic snapshot.
//!
//! Layout under `<root>/<job>/`:
//!
//! * `spec.json` — the [`CampaignSpec`], written once at creation
//!   (tmp + fsync + rename).
//! * `wal.log` — framed [`CellRecord`]s: `[u32 LE payload length]`
//!   `[u32 LE FNV-1a checksum]` `[compact JSON payload]`, the checksum
//!   the wire frames use ([`netsim_wire::checksum32`]).  Appends are
//!   flushed and `fdatasync`ed record-by-record, so after a crash at most
//!   the *tail* record is torn.
//! * `snapshot.json` — a compacted image of every durable record, written
//!   atomically (tmp + fsync + rename); after a successful snapshot the
//!   WAL is truncated to zero.
//!
//! Recovery loads the snapshot (if any), then replays the WAL and
//! **truncates the first torn record** — short header, absurd length,
//! checksum mismatch, unparsable payload, or a record inconsistent with
//! the spec's own cell expansion (out-of-range index, wrong identity tag,
//! non-monotone sequence number).  Everything before the tear is durable
//! and kept; the scheduler resumes from the surviving cell set.

use crate::error::CampaignError;
use crate::spec::{CampaignCell, CampaignSpec};
use crate::telemetry::Telemetry;
use byzcount_core::sim::RunReport;
use netsim_wire::checksum32;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Upper bound on a single framed payload; anything larger is treated as
/// a torn length field.
pub const MAX_RECORD_BYTES: u32 = 64 * 1024 * 1024;

/// One durable result: the `seq`-th record appended to the store, holding
/// the report of cell `cell` (identity-tagged with `id`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellRecord {
    /// Monotone append sequence number — the results cursor is defined
    /// over it: a reader at cursor `c` receives exactly the records with
    /// `seq >= c`, each once.
    pub seq: u64,
    /// Cell index in [`CampaignSpec::cells`] expansion order.
    pub cell: u64,
    /// The cell's identity tag ([`crate::spec::cell_identity`]); recovery
    /// cross-checks it against the re-expanded spec.
    pub id: u64,
    /// The completed run.
    pub report: RunReport,
}

#[derive(Serialize, Deserialize)]
struct Snapshot {
    next_seq: u64,
    records: Vec<CellRecord>,
}

/// Frame a payload for the WAL.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn write_atomically(path: &Path, contents: &str) -> Result<(), CampaignError> {
    let tmp = path.with_extension("tmp");
    {
        let mut file = File::create(&tmp)?;
        file.write_all(contents.as_bytes())?;
        file.sync_data()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

/// The per-job durable store.  All mutation goes through [`append`]
/// (WAL) and [`checkpoint`] (snapshot + WAL truncation); opening an
/// existing directory runs recovery.
///
/// [`append`]: CampaignStore::append
/// [`checkpoint`]: CampaignStore::checkpoint
pub struct CampaignStore {
    dir: PathBuf,
    spec: CampaignSpec,
    cells: Vec<CampaignCell>,
    /// Durable records in `seq` order (snapshot records first, then the
    /// surviving WAL suffix, then in-session appends).
    records: Vec<CellRecord>,
    /// cell index → position in `records` of its (first) report.
    by_cell: BTreeMap<u64, usize>,
    wal: File,
    next_seq: u64,
    /// Optional observation-only telemetry sink; when present, [`append`]
    /// times its `fdatasync` into the fsync latency histogram.
    ///
    /// [`append`]: CampaignStore::append
    telemetry: Option<Arc<Telemetry>>,
}

impl CampaignStore {
    fn job_dir(root: &Path, job: &str) -> PathBuf {
        root.join(job)
    }

    /// Path of the job's WAL file (exposed for tests that simulate torn
    /// writes by truncating it).
    pub fn wal_path(root: &Path, job: &str) -> PathBuf {
        Self::job_dir(root, job).join("wal.log")
    }

    /// Open the job's store under `root`, creating it if absent.  If the
    /// job already exists its persisted spec must equal `spec` (same
    /// job id, different sweep is an error, not a silent overwrite);
    /// existing state is recovered.  Returns the store and whether it
    /// resumed prior state.
    pub fn open_or_create(root: &Path, spec: &CampaignSpec) -> Result<(Self, bool), CampaignError> {
        spec.validate()?;
        // Persist (and compare) the migrated form, so an old-version spec
        // and its current-version equivalent name the same job state.
        let mut spec = spec.clone();
        spec.migrate();
        let dir = Self::job_dir(root, &spec.job);
        let spec_path = dir.join("spec.json");
        if spec_path.exists() {
            let store = Self::open(root, &spec.job)?;
            if store.spec != spec {
                return Err(CampaignError::State(format!(
                    "job `{}` already exists with a different spec",
                    spec.job
                )));
            }
            let resumed = !store.records.is_empty();
            return Ok((store, resumed));
        }
        fs::create_dir_all(&dir)?;
        write_atomically(&spec_path, &spec.to_json())?;
        let wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("wal.log"))?;
        let cells = spec.cells();
        Ok((
            CampaignStore {
                dir,
                spec,
                cells,
                records: Vec::new(),
                by_cell: BTreeMap::new(),
                wal,
                next_seq: 0,
                telemetry: None,
            },
            false,
        ))
    }

    /// Open an existing job and run recovery: load the snapshot, replay
    /// the WAL, truncate the torn tail (if any), and rebuild the
    /// completed-cell map.
    pub fn open(root: &Path, job: &str) -> Result<Self, CampaignError> {
        let dir = Self::job_dir(root, job);
        let spec_text = fs::read_to_string(dir.join("spec.json"))
            .map_err(|e| CampaignError::State(format!("unknown job `{job}`: {e}")))?;
        let spec = CampaignSpec::from_json(&spec_text)?;
        let cells = spec.cells();

        let mut records: Vec<CellRecord> = Vec::new();
        let mut next_seq: u64 = 0;
        let snap_path = dir.join("snapshot.json");
        if snap_path.exists() {
            // Snapshots are written atomically, so a present-but-broken
            // snapshot is real corruption, not a torn write.
            let text = fs::read_to_string(&snap_path)?;
            let snap: Snapshot = serde_json::from_str(&text)
                .map_err(|e| CampaignError::Corrupt(format!("snapshot unreadable: {e}")))?;
            next_seq = snap.next_seq;
            records = snap.records;
        }

        let wal_path = dir.join("wal.log");
        let mut bytes = Vec::new();
        if wal_path.exists() {
            File::open(&wal_path)?.read_to_end(&mut bytes)?;
        }
        let mut good = 0usize;
        let mut offset = 0usize;
        loop {
            if bytes.len() - offset < 8 {
                break; // torn or absent header
            }
            let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap());
            let sum = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
            if len > MAX_RECORD_BYTES {
                break; // garbage length field
            }
            let len = len as usize;
            if bytes.len() - offset - 8 < len {
                break; // torn payload
            }
            let payload = &bytes[offset + 8..offset + 8 + len];
            if checksum32(payload) != sum {
                break; // torn or bit-flipped payload
            }
            let Ok(text) = std::str::from_utf8(payload) else {
                break;
            };
            let Ok(record) = serde_json::from_str::<CellRecord>(text) else {
                break;
            };
            let consistent = record.seq >= next_seq
                && (record.cell as usize) < cells.len()
                && cells[record.cell as usize].id == record.id;
            if !consistent {
                break; // stale or foreign record: treat as the tear point
            }
            next_seq = record.seq + 1;
            records.push(record);
            offset += 8 + len;
            good = offset;
        }
        if good < bytes.len() {
            // Drop the torn tail so future appends start on a clean frame
            // boundary.
            let file = OpenOptions::new().write(true).open(&wal_path)?;
            file.set_len(good as u64)?;
            file.sync_data()?;
        }

        let mut by_cell = BTreeMap::new();
        let mut dedup = Vec::with_capacity(records.len());
        for record in records {
            // Keep the first report per cell (re-runs after an unsynced
            // resume produce identical reports anyway — specs are
            // deterministic — but the cursor contract promises no
            // duplicates).
            if let std::collections::btree_map::Entry::Vacant(entry) = by_cell.entry(record.cell) {
                entry.insert(dedup.len());
                dedup.push(record);
            }
        }

        let wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_path)?;
        Ok(CampaignStore {
            dir,
            spec,
            cells,
            records: dedup,
            by_cell,
            wal,
            next_seq,
            telemetry: None,
        })
    }

    /// The job's spec.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// The full deterministic cell expansion.
    pub fn cells(&self) -> &[CampaignCell] {
        &self.cells
    }

    /// Durable records in `seq` order.
    pub fn records(&self) -> &[CellRecord] {
        &self.records
    }

    /// The report of a completed cell, if durable.
    pub fn report_of(&self, cell: u64) -> Option<&RunReport> {
        self.by_cell.get(&cell).map(|&i| &self.records[i].report)
    }

    /// Number of completed (durable) cells.
    pub fn completed(&self) -> usize {
        self.by_cell.len()
    }

    /// Cells with no durable report yet, in expansion order — the
    /// scheduler's work list on start and on resume.
    pub fn pending_cells(&self) -> Vec<CampaignCell> {
        self.cells
            .iter()
            .filter(|c| !self.by_cell.contains_key(&c.index))
            .cloned()
            .collect()
    }

    /// The cursor value one past the last durable record.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Install an observation-only telemetry sink; subsequent
    /// [`append`](CampaignStore::append)s time their fsync into it.
    /// Durability and record contents are unaffected.
    pub fn attach_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// Append one completed cell to the WAL (flushed and synced before
    /// returning — once `append` returns, the record survives a crash).
    /// A duplicate report for an already-durable cell is ignored.
    pub fn append(&mut self, cell: u64, report: RunReport) -> Result<&CellRecord, CampaignError> {
        let Some(expected) = self.cells.get(cell as usize) else {
            return Err(CampaignError::State(format!(
                "cell {cell} out of range (job has {} cells)",
                self.cells.len()
            )));
        };
        if let Some(&i) = self.by_cell.get(&cell) {
            return Ok(&self.records[i]);
        }
        let record = CellRecord {
            seq: self.next_seq,
            cell,
            id: expected.id,
            report,
        };
        let payload = serde_json::to_string(&record).expect("CellRecord serialization cannot fail");
        self.wal.write_all(&frame(payload.as_bytes()))?;
        match &self.telemetry {
            Some(telemetry) => {
                let start = Instant::now();
                self.wal.sync_data()?;
                telemetry.record_fsync_ns(start.elapsed().as_nanos() as u64);
            }
            None => self.wal.sync_data()?,
        }
        self.next_seq += 1;
        self.by_cell.insert(cell, self.records.len());
        self.records.push(record);
        Ok(self.records.last().expect("just pushed"))
    }

    /// Compact: write every durable record into `snapshot.json`
    /// atomically, then truncate the WAL.  A crash between the two steps
    /// is safe — recovery replays the (now redundant) WAL records after
    /// the snapshot and deduplicates by cell.
    pub fn checkpoint(&mut self) -> Result<(), CampaignError> {
        let snap = Snapshot {
            next_seq: self.next_seq,
            records: self.records.clone(),
        };
        let text = serde_json::to_string(&snap).expect("Snapshot serialization cannot fail");
        write_atomically(&self.dir.join("snapshot.json"), &text)?;
        let wal_path = self.dir.join("wal.log");
        let file = OpenOptions::new().write(true).open(&wal_path)?;
        file.set_len(0)?;
        file.sync_data()?;
        self.wal = OpenOptions::new().append(true).open(&wal_path)?;
        Ok(())
    }

    /// Whether every cell has a durable report.
    pub fn is_complete(&self) -> bool {
        self.by_cell.len() == self.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::tests::demo_batch;
    use byzcount_analysis::campaign::FullRegistry;
    use byzcount_core::sim::execute_spec;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("byzcount-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spec(job: &str) -> CampaignSpec {
        CampaignSpec::for_batch(job, demo_batch())
    }

    fn run_cell(store: &CampaignStore, cell: usize) -> RunReport {
        execute_spec(&store.cells()[cell].spec, &FullRegistry).unwrap()
    }

    #[test]
    fn append_recover_round_trip() {
        let root = tmp_root("roundtrip");
        let spec = spec("rt");
        let (mut store, resumed) = CampaignStore::open_or_create(&root, &spec).unwrap();
        assert!(!resumed);
        let r0 = run_cell(&store, 0);
        let r3 = run_cell(&store, 3);
        store.append(0, r0.clone()).unwrap();
        store.append(3, r3.clone()).unwrap();
        drop(store);

        let store = CampaignStore::open(&root, "rt").unwrap();
        assert_eq!(store.completed(), 2);
        assert_eq!(store.report_of(0), Some(&r0));
        assert_eq!(store.report_of(3), Some(&r3));
        assert_eq!(store.next_seq(), 2);
        assert_eq!(store.pending_cells().len(), store.cells().len() - 2);

        let (store, resumed) = CampaignStore::open_or_create(&root, &spec).unwrap();
        assert!(resumed);
        assert_eq!(store.completed(), 2);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn checkpoint_compacts_and_survives() {
        let root = tmp_root("checkpoint");
        let (mut store, _) = CampaignStore::open_or_create(&root, &spec("cp")).unwrap();
        let r0 = run_cell(&store, 0);
        let r1 = run_cell(&store, 1);
        store.append(0, r0.clone()).unwrap();
        store.checkpoint().unwrap();
        assert_eq!(
            fs::metadata(CampaignStore::wal_path(&root, "cp"))
                .unwrap()
                .len(),
            0
        );
        store.append(1, r1.clone()).unwrap();
        drop(store);

        let store = CampaignStore::open(&root, "cp").unwrap();
        assert_eq!(store.completed(), 2);
        assert_eq!(store.report_of(0), Some(&r0));
        assert_eq!(store.report_of(1), Some(&r1));
        assert_eq!(store.next_seq(), 2);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_to_last_good_record() {
        let root = tmp_root("torn");
        let (mut store, _) = CampaignStore::open_or_create(&root, &spec("torn")).unwrap();
        let r0 = run_cell(&store, 0);
        let r1 = run_cell(&store, 1);
        store.append(0, r0.clone()).unwrap();
        let boundary = fs::metadata(CampaignStore::wal_path(&root, "torn"))
            .unwrap()
            .len();
        store.append(1, r1).unwrap();
        drop(store);

        // Tear the second record mid-payload.
        let wal = CampaignStore::wal_path(&root, "torn");
        let full = fs::metadata(&wal).unwrap().len();
        let f = OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(boundary + (full - boundary) / 2).unwrap();
        drop(f);

        let store = CampaignStore::open(&root, "torn").unwrap();
        assert_eq!(store.completed(), 1, "only the intact record survives");
        assert_eq!(store.report_of(0), Some(&r0));
        assert_eq!(store.next_seq(), 1);
        // The tail was physically dropped, so appends resume cleanly.
        assert_eq!(fs::metadata(&wal).unwrap().len(), boundary);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn mismatched_spec_is_rejected() {
        let root = tmp_root("mismatch");
        let (store, _) = CampaignStore::open_or_create(&root, &spec("job")).unwrap();
        drop(store);
        let mut other = spec("job");
        other.batch.sizes = Some(vec![32]);
        let Err(err) = CampaignStore::open_or_create(&root, &other) else {
            panic!("different spec under the same job id must be rejected");
        };
        assert!(matches!(err, CampaignError::State(_)), "{err}");
        fs::remove_dir_all(&root).unwrap();
    }
}
