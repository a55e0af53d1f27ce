//! Versioned, checksummed persistence of completed replications so an
//! interrupted study can resume without redoing work.
//!
//! The file layout is two nested JSON documents. The outer envelope names
//! the format, its version, and an FNV-1a 64 checksum; the inner payload —
//! stored as a JSON *string* so the checksum covers its exact bytes — holds
//! one entry per `(scenario, base seed)` pair with the raw per-replication
//! reward vectors:
//!
//! ```json
//! {
//!   "format": "cfs-study-checkpoint",
//!   "version": 1,
//!   "checksum": "fnv1a64:c0ffee0123456789",
//!   "payload": "{\"entries\":[...]}"
//! }
//! ```
//!
//! Because replication `i` of any evaluation draws from the RNG stream
//! derived from `(base seed, i)`, restoring a stored prefix and simulating
//! the remainder is bit-identical to an uninterrupted run — the report
//! bytes match exactly. The checksum turns a truncated or hand-edited file
//! into a typed [`CfsError::Checkpoint`] instead of silently-wrong
//! statistics; a *missing* file is not an error (every fresh run starts
//! with no checkpoint).
//!
//! Writes are atomic (write to `<path>.tmp`, then rename), and concurrent
//! read-modify-write cycles from the study's worker pool serialise on a
//! process-wide lock, so a checkpoint file is never observed half-written.

use std::fs;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

use probdist::telemetry;
use serde::{json, Value};

use crate::CfsError;

/// Format tag stored in the envelope; a file with a different tag is
/// rejected rather than misparsed.
pub const FORMAT: &str = "cfs-study-checkpoint";

/// Current checkpoint format version. Readers reject other versions.
pub const VERSION: u64 = 1;

/// One completed replication: the named reward totals plus the event count
/// and final simulation clock — everything the analysis layer needs to
/// rebuild the replication's `RunResult` without re-simulating.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRun {
    /// `(reward name, accumulated value)` in reward-table order.
    pub rewards: Vec<(String, f64)>,
    /// Events executed by the replication.
    pub events: u64,
    /// Simulation clock at the end of the replication, hours.
    pub end_time: f64,
}

/// In-memory image of a checkpoint file: one entry per
/// `(scenario, base seed)` key, each holding the contiguous prefix of
/// completed replications.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckpointData {
    entries: Vec<(String, Vec<StoredRun>)>,
}

impl CheckpointData {
    /// An empty checkpoint (what [`load`] returns for a missing file).
    pub fn new() -> Self {
        CheckpointData::default()
    }

    /// The stored replication prefix for `key`, if any.
    pub fn entry(&self, key: &str) -> Option<&[StoredRun]> {
        self.entries.iter().find(|(name, _)| name == key).map(|(_, runs)| runs.as_slice())
    }

    /// Replaces (or inserts) the replication prefix for `key`.
    pub fn set_entry(&mut self, key: &str, runs: Vec<StoredRun>) {
        match self.entries.iter_mut().find(|(name, _)| name == key) {
            Some((_, existing)) => *existing = runs,
            None => self.entries.push((key.to_string(), runs)),
        }
    }

    /// Number of entries (distinct scenario × seed keys).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the checkpoint holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The entry key for a scenario evaluated under a given base seed. Keying
/// on both means a checkpoint file can be shared by a whole study (distinct
/// scenario names) and survives seed changes without serving stale runs.
pub fn entry_key(scenario: &str, base_seed: u64) -> String {
    format!("{scenario}#{base_seed:x}")
}

/// FNV-1a 64-bit over `bytes` — tiny, dependency-free, and plenty to catch
/// truncation and accidental edits (this is an integrity check, not an
/// authenticity one).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn checkpoint_error(path: &Path, reason: impl Into<String>) -> CfsError {
    CfsError::Checkpoint { path: path.display().to_string(), reason: reason.into() }
}

fn entry_value(key: &str, runs: &[StoredRun]) -> Value {
    let runs = runs
        .iter()
        .map(|run| {
            let rewards = run
                .rewards
                .iter()
                .map(|(name, value)| {
                    Value::Array(vec![Value::String(name.clone()), Value::Float(*value)])
                })
                .collect();
            Value::Object(vec![
                ("rewards".to_string(), Value::Array(rewards)),
                ("events".to_string(), Value::UInt(run.events)),
                ("end_time".to_string(), Value::Float(run.end_time)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("key".to_string(), Value::String(key.to_string())),
        ("runs".to_string(), Value::Array(runs)),
    ])
}

/// Renders the payload, the compact JSON of `{"entries": [...]}`, one
/// entry at a time, and returns it with the serialised length of the
/// entry keyed `counted` (of every entry when `None`): the bytes telemetry
/// charges to this write.
fn payload_json(data: &CheckpointData, counted: Option<&str>) -> (String, usize) {
    let mut payload = String::from("{\"entries\":[");
    let mut counted_bytes = 0;
    for (i, (key, runs)) in data.entries.iter().enumerate() {
        if i > 0 {
            payload.push(',');
        }
        let entry = entry_value(key, runs).to_json();
        if counted.is_none() || counted == Some(key.as_str()) {
            counted_bytes += entry.len();
        }
        payload.push_str(&entry);
    }
    payload.push_str("]}");
    (payload, counted_bytes)
}

fn parse_payload(path: &Path, payload: &str) -> Result<CheckpointData, CfsError> {
    let value = json::parse(payload)
        .map_err(|e| checkpoint_error(path, format!("malformed payload: {e}")))?;
    let entries = value
        .get("entries")
        .and_then(Value::as_array)
        .ok_or_else(|| checkpoint_error(path, "payload has no 'entries' array"))?;
    let mut data = CheckpointData::new();
    for entry in entries {
        let key = entry
            .get("key")
            .and_then(Value::as_str)
            .ok_or_else(|| checkpoint_error(path, "entry has no 'key' string"))?;
        let runs = entry
            .get("runs")
            .and_then(Value::as_array)
            .ok_or_else(|| checkpoint_error(path, "entry has no 'runs' array"))?;
        let mut stored = Vec::with_capacity(runs.len());
        for run in runs {
            let rewards = run
                .get("rewards")
                .and_then(Value::as_array)
                .ok_or_else(|| checkpoint_error(path, "run has no 'rewards' array"))?;
            let mut pairs = Vec::with_capacity(rewards.len());
            for pair in rewards {
                let fields = pair.as_array().unwrap_or(&[]);
                let (name, value) = match fields {
                    [name, value] => (name.as_str(), value.as_f64()),
                    _ => (None, None),
                };
                match (name, value) {
                    (Some(name), Some(value)) => pairs.push((name.to_string(), value)),
                    _ => {
                        return Err(checkpoint_error(
                            path,
                            "reward entry is not a [name, value] pair",
                        ));
                    }
                }
            }
            let events = run
                .get("events")
                .and_then(Value::as_u64)
                .ok_or_else(|| checkpoint_error(path, "run has no 'events' count"))?;
            let end_time = run
                .get("end_time")
                .and_then(Value::as_f64)
                .ok_or_else(|| checkpoint_error(path, "run has no 'end_time' value"))?;
            stored.push(StoredRun { rewards: pairs, events, end_time });
        }
        data.set_entry(key, stored);
    }
    Ok(data)
}

/// Reads a checkpoint file.
///
/// A missing file yields an empty [`CheckpointData`] — the normal state of
/// every fresh run.
///
/// # Errors
///
/// Returns [`CfsError::Checkpoint`] when the file exists but is unreadable,
/// malformed, from a different format or version, or fails its checksum.
pub fn load(path: impl AsRef<Path>) -> Result<CheckpointData, CfsError> {
    let path = path.as_ref();
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(CheckpointData::new());
        }
        Err(e) => return Err(checkpoint_error(path, format!("cannot read: {e}"))),
    };
    let envelope = json::parse(&text)
        .map_err(|e| checkpoint_error(path, format!("malformed envelope: {e}")))?;
    let format = envelope
        .get("format")
        .and_then(Value::as_str)
        .ok_or_else(|| checkpoint_error(path, "envelope has no 'format' tag"))?;
    if format != FORMAT {
        return Err(checkpoint_error(
            path,
            format!("format tag is '{format}', expected '{FORMAT}'"),
        ));
    }
    let version = envelope
        .get("version")
        .and_then(Value::as_u64)
        .ok_or_else(|| checkpoint_error(path, "envelope has no 'version' number"))?;
    if version != VERSION {
        return Err(checkpoint_error(
            path,
            format!("version {version} is not the supported version {VERSION}"),
        ));
    }
    let checksum = envelope
        .get("checksum")
        .and_then(Value::as_str)
        .ok_or_else(|| checkpoint_error(path, "envelope has no 'checksum' field"))?;
    let payload = envelope
        .get("payload")
        .and_then(Value::as_str)
        .ok_or_else(|| checkpoint_error(path, "envelope has no 'payload' string"))?;
    let expected = format!("fnv1a64:{:016x}", fnv1a64(payload.as_bytes()));
    if checksum != expected {
        return Err(checkpoint_error(
            path,
            format!("checksum mismatch: file says {checksum}, payload hashes to {expected}"),
        ));
    }
    parse_payload(path, payload)
}

/// Writes a checkpoint file atomically: the document is assembled in
/// memory, written to `<path>.tmp`, and renamed over `path`, so readers
/// never observe a half-written file. If either step fails the temporary
/// file is removed (best effort). Telemetry counts the serialised bytes of
/// every entry.
///
/// # Errors
///
/// Returns [`CfsError::Checkpoint`] when the temporary file cannot be
/// written or the rename fails.
pub fn store(path: impl AsRef<Path>, data: &CheckpointData) -> Result<(), CfsError> {
    write_file(path.as_ref(), data, None)
}

/// [`store`], charging telemetry only for the entry keyed `counted` (every
/// entry when `None`).
fn write_file(path: &Path, data: &CheckpointData, counted: Option<&str>) -> Result<(), CfsError> {
    let (payload, entry_bytes) = payload_json(data, counted);
    let envelope = Value::Object(vec![
        ("format".to_string(), Value::String(FORMAT.to_string())),
        ("version".to_string(), Value::UInt(VERSION)),
        (
            "checksum".to_string(),
            Value::String(format!("fnv1a64:{:016x}", fnv1a64(payload.as_bytes()))),
        ),
        ("payload".to_string(), Value::String(payload)),
    ]);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let document = envelope.to_json_pretty();
    telemetry::counter_inc(telemetry::MetricId::CheckpointWrites);
    telemetry::counter_add(telemetry::MetricId::CheckpointBytes, entry_bytes as u64);
    let write_span = telemetry::span(telemetry::MetricId::SpanCheckpointWrite);
    if let Err(e) = fs::write(&tmp, document) {
        let _ = fs::remove_file(&tmp);
        return Err(checkpoint_error(path, format!("cannot write temporary file: {e}")));
    }
    drop(write_span);
    let _rename_span = telemetry::span(telemetry::MetricId::SpanCheckpointRename);
    fs::rename(&tmp, path).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        checkpoint_error(path, format!("cannot rename temporary file: {e}"))
    })
}

/// Serialises every read-modify-write cycle in this process: scenarios of a
/// study checkpoint concurrently into the same file from the worker pool.
static UPDATE_LOCK: Mutex<()> = Mutex::new(());

/// Atomically merges `runs` into the checkpoint at `path` under `key`:
/// loads the current file (empty if missing), replaces the entry, and
/// stores the result. Concurrent updates from this process serialise on a
/// lock; the write itself is atomic. Telemetry counts only the bytes of
/// the `key` entry, so the count does not depend on what other scenarios
/// sharing the file have written so far.
///
/// # Errors
///
/// Returns [`CfsError::Checkpoint`] when the existing file is corrupt or
/// the rewrite fails.
pub fn update(path: impl AsRef<Path>, key: &str, runs: Vec<StoredRun>) -> Result<(), CfsError> {
    let _guard = UPDATE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let mut data = load(path.as_ref())?;
    data.set_entry(key, runs);
    write_file(path.as_ref(), &data, Some(key))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("cfs-checkpoint-test-{}-{name}", std::process::id()));
        path
    }

    fn sample_runs() -> Vec<StoredRun> {
        vec![
            StoredRun {
                rewards: vec![
                    ("availability".to_string(), 0.999_875_421_301),
                    ("repairs".to_string(), 17.0),
                ],
                events: 12_345,
                end_time: 8760.0,
            },
            StoredRun {
                rewards: vec![
                    ("availability".to_string(), f64::MIN_POSITIVE),
                    ("repairs".to_string(), 1.0e-17),
                ],
                events: 1,
                end_time: 0.125,
            },
        ]
    }

    #[test]
    fn round_trip_preserves_every_bit() {
        let path = temp_path("round-trip");
        let mut data = CheckpointData::new();
        data.set_entry(&entry_key("baseline", 42), sample_runs());
        store(&path, &data).unwrap();
        let reloaded = load(&path).unwrap();
        assert_eq!(reloaded, data);
        let runs = reloaded.entry(&entry_key("baseline", 42)).unwrap();
        for (stored, original) in runs.iter().zip(sample_runs().iter()) {
            for ((_, a), (_, b)) in stored.rewards.iter().zip(original.rewards.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_empty_checkpoint() {
        let data = load(temp_path("never-created")).unwrap();
        assert!(data.is_empty());
        assert!(data.entry("anything").is_none());
    }

    #[test]
    fn corrupt_files_are_typed_errors_not_panics() {
        let path = temp_path("corrupt");

        // Truncated mid-document.
        fs::write(&path, "{\"format\": \"cfs-stu").unwrap();
        let err = load(&path).unwrap_err();
        assert!(matches!(err, CfsError::Checkpoint { .. }), "{err}");

        // Wrong format tag.
        fs::write(&path, "{\"format\": \"other\", \"version\": 1}").unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.to_string().contains("format tag"), "{err}");

        // Unsupported version.
        fs::write(&path, format!("{{\"format\": \"{FORMAT}\", \"version\": 2}}")).unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.to_string().contains("version 2"), "{err}");

        // Checksum mismatch: flip a digit in a valid file's stored value.
        let mut data = CheckpointData::new();
        data.set_entry("k", sample_runs());
        store(&path, &data).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("12345", "12346", 1);
        assert_ne!(text, tampered, "tamper target not found");
        fs::write(&path, tampered).unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");

        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn update_merges_entries_without_clobbering_others() {
        let path = temp_path("update");
        let _ = fs::remove_file(&path);
        update(&path, "a#1", sample_runs()).unwrap();
        update(&path, "b#1", sample_runs()[..1].to_vec()).unwrap();
        let longer = sample_runs();
        update(&path, "a#1", longer.clone()).unwrap();
        let data = load(&path).unwrap();
        assert_eq!(data.len(), 2);
        assert_eq!(data.entry("a#1").unwrap(), longer.as_slice());
        assert_eq!(data.entry("b#1").unwrap().len(), 1);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn payload_is_the_compact_document_and_counts_one_entry() {
        let mut data = CheckpointData::new();
        data.set_entry("a#1", sample_runs());
        data.set_entry("b#1", sample_runs()[..1].to_vec());
        let entries: Vec<Value> =
            data.entries.iter().map(|(key, runs)| entry_value(key, runs)).collect();
        let a_bytes = entries[0].to_json().len();
        let document = Value::Object(vec![("entries".to_string(), Value::Array(entries))]);
        let (payload, all) = payload_json(&data, None);
        assert_eq!(payload, document.to_json());
        assert_eq!(all, payload.len() - "{\"entries\":[,]}".len());
        assert_eq!(payload_json(&data, Some("a#1")), (payload.clone(), a_bytes));
        assert_eq!(payload_json(&CheckpointData::new(), None), ("{\"entries\":[]}".into(), 0));
    }

    #[test]
    fn large_entry_round_trips_and_loads_in_linear_time() {
        let path = temp_path("large");
        let runs: Vec<StoredRun> = (0..2048_u32)
            .map(|i| {
                let x = f64::from(i);
                StoredRun {
                    rewards: vec![
                        ("cfs_availability".to_string(), 1.0 - 1.0 / (x + 3.7)),
                        ("storage_availability".to_string(), 0.999_9 - x * 1.0e-9),
                        ("cu".to_string(), (x + 0.5).sqrt() / 57.3),
                        ("disk_replacements".to_string(), x * 0.37),
                        ("oss_pairs_down".to_string(), x.ln_1p() / 13.0),
                        ("jobs_lost".to_string(), x * 0.011),
                    ],
                    events: 100_000 + u64::from(i) * 7,
                    end_time: 8760.0 + x / 3.0,
                }
            })
            .collect();
        let mut data = CheckpointData::new();
        data.set_entry(&entry_key("petascale", 7), runs.clone());
        store(&path, &data).unwrap();
        let size = fs::metadata(&path).unwrap().len();
        assert!(size > 500_000 && size < 600_000, "the file should be ~550 KB, is {size}");

        let started = std::time::Instant::now();
        let reloaded = load(&path).unwrap();
        let elapsed = started.elapsed();
        let back = reloaded.entry(&entry_key("petascale", 7)).unwrap();
        assert_eq!(back.len(), runs.len());
        for (stored, original) in back.iter().zip(&runs) {
            assert_eq!(stored.events, original.events);
            assert_eq!(stored.end_time.to_bits(), original.end_time.to_bits());
            for ((name, a), (original_name, b)) in stored.rewards.iter().zip(&original.rewards) {
                assert_eq!(name, original_name);
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // Linear parsing loads this in milliseconds; re-validating the rest
        // of the file per string character took seconds.
        assert!(elapsed.as_secs_f64() < 1.0, "load took {elapsed:?}");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_store_leaves_no_temporary_file() {
        // Renaming a file over an existing directory fails.
        let dir = temp_path("store-onto-directory");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir(&dir).unwrap();
        let mut data = CheckpointData::new();
        data.set_entry("k", sample_runs());
        let err = store(&dir, &data).unwrap_err();
        assert!(matches!(err, CfsError::Checkpoint { .. }), "{err}");
        assert!(err.to_string().contains("cannot rename"), "{err}");
        let mut tmp = dir.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!std::path::Path::new(&tmp).exists(), "stray temporary file left behind");
        fs::remove_dir(&dir).unwrap();
    }

    #[test]
    fn entry_keys_separate_scenarios_and_seeds() {
        assert_eq!(entry_key("baseline", 255), "baseline#ff");
        assert_ne!(entry_key("baseline", 1), entry_key("baseline", 2));
        assert_ne!(entry_key("a", 1), entry_key("b", 1));
    }
}
