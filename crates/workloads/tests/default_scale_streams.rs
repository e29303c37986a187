//! Pins the synthetic streams at the default experiment scale.
//!
//! The golden corpus tests re-record traces only at tiny scale. This test
//! hashes the first records of the first and last of 24 threads of every
//! workload at the default scale's 256 MiB footprint and seed, so a change
//! that moves a default-scale stream (the Zipf table, the RNG, the order of
//! its draws) fails here rather than only in the benchmark's digests.

use skybyte_workloads::{TraceSource, WorkloadKind, WorkloadSource};

const FOOTPRINT: u64 = 256 << 20;
const THREADS: u32 = 24;
const SEED: u64 = 0x5B5B_2025;
const RECORDS: usize = 5_000;

/// FNV-1a-64 of `(instructions, address, write flag)` over the first
/// [`RECORDS`] records of `thread`, each field little-endian.
fn stream_hash(source: &mut WorkloadSource, thread: u32) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..RECORDS {
        let record = source
            .next_record(thread)
            .expect("thread in range")
            .expect("unbounded source");
        let write = [record.access.kind.is_write() as u8];
        let fields = [
            &record.instructions.to_le_bytes()[..],
            &record.access.addr.as_u64().to_le_bytes()[..],
            &write[..],
        ];
        for byte in fields.concat() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn default_scale_streams_are_pinned() {
    // FNV-1a-64 of threads 0 and 23. A change that must not move streams
    // keeps every one; a change that moves them on purpose updates them.
    let pinned = [
        (
            WorkloadKind::Bc,
            [0x3509_2442_4096_2b80, 0xddf2_a75d_56f1_fdb2],
        ),
        (
            WorkloadKind::BfsDense,
            [0x6255_e2d1_aed0_127d, 0x62fe_6865_567b_74b5],
        ),
        (
            WorkloadKind::Dlrm,
            [0xee32_c440_0f76_2366, 0x1a3f_7178_4521_8b1b],
        ),
        (
            WorkloadKind::Radix,
            [0x2b77_e1ad_4520_77e2, 0x7eae_9ed5_801e_478e],
        ),
        (
            WorkloadKind::Srad,
            [0x21bc_a83d_a3c8_52a9, 0x99c2_6d7f_9aed_21db],
        ),
        (
            WorkloadKind::Tpcc,
            [0x4dd4_42e8_feb2_804d, 0xa604_6a4d_368c_7872],
        ),
        (
            WorkloadKind::Ycsb,
            [0x7ec4_a86b_f2a5_da01, 0xbba8_05b3_e24e_6f40],
        ),
    ];
    for (kind, want) in pinned {
        let mut source = WorkloadSource::new(&kind.spec().scaled_to(FOOTPRINT), THREADS, SEED);
        let got = [
            stream_hash(&mut source, 0),
            stream_hash(&mut source, THREADS - 1),
        ];
        assert_eq!(got, want, "{kind}: a default-scale stream moved");
    }
}
