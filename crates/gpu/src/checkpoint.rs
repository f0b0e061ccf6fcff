//! Whole-machine checkpoint/restore: crash-survivable single runs with
//! digest-verified deterministic resume.
//!
//! A checkpoint is a versioned snapshot of *everything mutable* in the
//! machine — per-CU/WG register and PC state, scheduler-policy internals,
//! monitor tables, L2/DRAM contents, the in-flight event calendar with its
//! FIFO sequence numbers, chaos cursors, telemetry accumulators, and the
//! cycle-windowed digest trail. Configuration (geometry, kernel, fault
//! plan, instrumentation flags) is deliberately *not* stored: restore
//! overlays the snapshot onto a freshly-built machine with the same
//! configuration, and a 64-bit identity fingerprint in the header rejects
//! snapshots from a different configuration up front.
//!
//! The file layout follows the PR 5 journal's durability discipline:
//!
//! ```text
//! magic "AWGCKPT\0" | version u32 | identity u64 | cycle u64
//! section: tag u8 | len u64 | bytes | crc32 u32
//! ```
//!
//! written to a temporary sibling and atomically renamed into place, so a
//! crash mid-write leaves either the previous snapshot or none — never a
//! torn one. Every decode failure (truncation, bit flip, stale version,
//! identity mismatch, inconsistent machine) fails closed as
//! [`SimError::CorruptCheckpoint`]: the one thing a restore must never do
//! is resume a machine that could silently diverge.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use awg_sim::{crc32, Cycle, Dec, Enc};

use crate::error::SimError;
use crate::machine::Gpu;

/// File magic for checkpoint snapshots.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"AWGCKPT\0";
/// Current snapshot format version. Bumped to 2 when the attribution
/// ledger (per-WG cause accounting in the telemetry hub, `fault_evicted`
/// on the WG context) extended the serialized machine state; bumped to 3
/// when each WG's one time ledger replaced the WG's waiting counters and
/// the hub's per-WG intervals.
pub const CHECKPOINT_VERSION: u32 = 3;
/// Section tag for the machine-state payload.
const SECTION_MACHINE: u8 = 1;
/// Header size: magic + version + identity + cycle.
const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Cooperative checkpointing parameters for [`Gpu::set_checkpoint`].
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Snapshot destination (rewritten in place at every boundary).
    pub path: PathBuf,
    /// Snapshot interval in simulated cycles.
    pub every: Cycle,
    /// Identity fingerprint of the run configuration; restore refuses a
    /// snapshot whose stored identity differs.
    pub identity: u64,
    /// Crash-test hook: exit the process with status 137 (the SIGKILL
    /// code) immediately after the Nth snapshot of this process hits disk.
    pub kill_after: Option<u64>,
}

/// A parsed, CRC-verified snapshot, ready for [`restore_into`].
#[derive(Debug, Clone)]
pub struct CheckpointImage {
    /// Format version the file declared (always [`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Identity fingerprint the file was written under.
    pub identity: u64,
    /// Simulated cycle the machine had reached, from the header — readable
    /// without decoding the payload, so a supervisor can peek how far a
    /// dead job got.
    pub cycle: Cycle,
    machine: Vec<u8>,
}

/// Serializes `gpu` and writes the snapshot to `path` atomically
/// (temporary sibling + rename).
pub fn write_checkpoint(gpu: &Gpu, identity: u64, path: &Path) -> io::Result<()> {
    let mut body = Enc::new();
    gpu.save_state(&mut body);
    let machine = body.into_bytes();

    let mut out = Vec::with_capacity(HEADER_LEN + machine.len() + 13);
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&identity.to_le_bytes());
    out.extend_from_slice(&gpu.now().to_le_bytes());
    out.push(SECTION_MACHINE);
    out.extend_from_slice(&(machine.len() as u64).to_le_bytes());
    out.extend_from_slice(&machine);
    out.extend_from_slice(&crc32(&machine).to_le_bytes());

    let tmp = tmp_sibling(path);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&out)?;
        f.sync_all()?;
    }
    match fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

fn corrupt(msg: impl Into<String>) -> SimError {
    SimError::CorruptCheckpoint(msg.into())
}

/// Reads and CRC-verifies a snapshot file. Header peeking, framing, and
/// checksum all happen here; machine-level consistency is checked by
/// [`restore_into`].
pub fn read_checkpoint(path: &Path) -> Result<CheckpointImage, SimError> {
    let bytes =
        fs::read(path).map_err(|e| corrupt(format!("cannot read {}: {e}", path.display())))?;
    if bytes.len() < HEADER_LEN {
        return Err(corrupt(format!(
            "file is {} bytes, shorter than the {HEADER_LEN}-byte header",
            bytes.len()
        )));
    }
    if bytes[..8] != CHECKPOINT_MAGIC {
        return Err(corrupt("bad magic: not a checkpoint file"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != CHECKPOINT_VERSION {
        return Err(corrupt(format!(
            "format version {version} (this build reads version {CHECKPOINT_VERSION})"
        )));
    }
    let identity = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let cycle = u64::from_le_bytes(bytes[20..28].try_into().unwrap());

    let rest = &bytes[HEADER_LEN..];
    if rest.len() < 9 {
        return Err(corrupt("truncated before section frame"));
    }
    if rest[0] != SECTION_MACHINE {
        return Err(corrupt(format!("unknown section tag {}", rest[0])));
    }
    let len = u64::from_le_bytes(rest[1..9].try_into().unwrap()) as usize;
    let frame = &rest[9..];
    if frame.len() < len + 4 {
        return Err(corrupt(format!(
            "section claims {len} bytes, only {} present",
            frame.len().saturating_sub(4)
        )));
    }
    let machine = &frame[..len];
    let stored = u32::from_le_bytes(frame[len..len + 4].try_into().unwrap());
    let actual = crc32(machine);
    if stored != actual {
        return Err(corrupt(format!(
            "section crc mismatch (stored {stored:#010x}, computed {actual:#010x})"
        )));
    }
    if frame.len() != len + 4 {
        return Err(corrupt(format!(
            "{} trailing bytes after section",
            frame.len() - len - 4
        )));
    }
    Ok(CheckpointImage {
        version,
        identity,
        cycle,
        machine: machine.to_vec(),
    })
}

/// Overlays `image` onto `gpu`, which must be freshly built from the same
/// configuration the snapshot was taken under (`expected_identity` is the
/// caller's fingerprint of that configuration). After decoding, the full
/// invariant oracle sweeps the rehydrated machine; any violation rejects
/// the restore.
pub fn restore_into(
    gpu: &mut Gpu,
    image: &CheckpointImage,
    expected_identity: u64,
) -> Result<(), SimError> {
    if image.identity != expected_identity {
        return Err(corrupt(format!(
            "identity mismatch: snapshot {:#018x}, this run {:#018x} — \
             the snapshot is from a different configuration",
            image.identity, expected_identity
        )));
    }
    let mut dec = Dec::new(&image.machine);
    gpu.load_state(&mut dec)
        .and_then(|()| dec.finish())
        .map_err(|e| corrupt(format!("machine state: {e}")))?;
    if gpu.now() != image.cycle {
        return Err(corrupt(format!(
            "header cycle {} disagrees with machine cycle {}",
            image.cycle,
            gpu.now()
        )));
    }
    let violations = gpu.check_invariants();
    if let Some(v) = violations.first() {
        return Err(corrupt(format!(
            "rehydrated machine violates invariants: {v}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GpuConfig, Kernel, WgResources};
    use crate::policy::BusyWaitPolicy;
    use awg_isa::ProgramBuilder;

    fn small_gpu() -> Gpu {
        let mut b = ProgramBuilder::new("ckpt");
        b.compute(50);
        b.halt();
        let kernel = Kernel::new(b.build().unwrap(), 8, WgResources::default());
        Gpu::new(
            GpuConfig::isca2020_baseline(),
            kernel,
            Box::new(BusyWaitPolicy::new()),
        )
    }

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("awg_ckpt_test_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn fresh_machine_round_trips() {
        let gpu = small_gpu();
        let path = tmp_path("roundtrip.ckpt");
        write_checkpoint(&gpu, 0xFEED, &path).unwrap();
        let image = read_checkpoint(&path).unwrap();
        assert_eq!(image.version, 3);
        assert_eq!(image.identity, 0xFEED);
        assert_eq!(image.cycle, 0);
        let mut fresh = small_gpu();
        restore_into(&mut fresh, &image, 0xFEED).unwrap();
        assert_eq!(fresh.digest(), gpu.digest());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn identity_mismatch_fails_closed() {
        let gpu = small_gpu();
        let path = tmp_path("identity.ckpt");
        write_checkpoint(&gpu, 1, &path).unwrap();
        let image = read_checkpoint(&path).unwrap();
        let mut fresh = small_gpu();
        let err = restore_into(&mut fresh, &image, 2).unwrap_err();
        assert!(matches!(err, SimError::CorruptCheckpoint(_)), "{err}");
        assert!(err.to_string().contains("identity mismatch"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_version_fails_closed() {
        let gpu = small_gpu();
        let path = tmp_path("version.ckpt");
        write_checkpoint(&gpu, 7, &path).unwrap();
        let good = std::fs::read(&path).unwrap();
        // Version 2 predates the per-WG time ledger; 99 is from the future.
        for version in [2u32, 99] {
            let mut bytes = good.clone();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let err = read_checkpoint(&path).unwrap_err();
            assert!(
                err.to_string().contains(&format!("version {version} ")),
                "{err}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_in_payload_fails_crc() {
        let gpu = small_gpu();
        let path = tmp_path("bitflip.ckpt");
        write_checkpoint(&gpu, 7, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = HEADER_LEN + 9 + (bytes.len() - HEADER_LEN - 13) / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert!(err.to_string().contains("crc mismatch"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_at_any_point_fails_closed() {
        let gpu = small_gpu();
        let path = tmp_path("truncate.ckpt");
        write_checkpoint(&gpu, 7, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Sample a spread of truncation points (full scan lives in the
        // harness proptest suite).
        for cut in [
            0,
            1,
            7,
            11,
            19,
            27,
            28,
            36,
            bytes.len() / 2,
            bytes.len() - 1,
        ] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = read_checkpoint(&path).unwrap_err();
            assert!(
                matches!(err, SimError::CorruptCheckpoint(_)),
                "cut at {cut}: {err}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crash_mid_write_leaves_previous_snapshot() {
        // The atomic rename means a .tmp sibling never shadows the real
        // file; simulate a crash by leaving a torn tmp behind.
        let gpu = small_gpu();
        let path = tmp_path("atomic.ckpt");
        write_checkpoint(&gpu, 7, &path).unwrap();
        let good = std::fs::read(&path).unwrap();
        std::fs::write(tmp_sibling(&path), &good[..good.len() / 2]).unwrap();
        let image = read_checkpoint(&path).unwrap();
        assert_eq!(image.identity, 7);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(tmp_sibling(&path)).unwrap();
    }
}
