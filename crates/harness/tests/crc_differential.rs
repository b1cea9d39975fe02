//! The checksum kernel against its reference.
//!
//! `bioopera_store::crc::crc32` picks its kernel from the CPU: a
//! carry-less-multiply fold where `pclmulqdq` is present and the buffer
//! holds at least one 64-byte block, slicing-by-8 everywhere else.  Every
//! frame, block and snapshot on disk carries the value, so all three
//! implementations — the dispatched one, the portable one called
//! directly, and the byte-at-a-time reference — have to agree on every
//! buffer: here on every length and start offset around each fold
//! boundary (16-byte lanes, 64-byte blocks, the table's 8-byte steps) and
//! on seeded buffers up to 1 MiB.  The portable path runs on every host;
//! the fold runs wherever the feature is present, and the test says which
//! it was.
//!
//! Everything random comes from `HARNESS_SEED`, which every failure
//! prints.

use bioopera_harness::{seed_from_env, DEFAULT_SEED};
use bioopera_store::crc::{crc32, crc32_bytewise, crc32_portable, kernel};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

fn assert_agree(seed: u64, what: std::fmt::Arguments<'_>, data: &[u8]) {
    let want = crc32_bytewise(data);
    assert_eq!(
        crc32_portable(data),
        want,
        "HARNESS_SEED={seed} {what}: slicing-by-8 differs from the bytewise reference"
    );
    assert_eq!(
        crc32(data),
        want,
        "HARNESS_SEED={seed} {what}: the dispatched kernel ({}) differs from the bytewise reference",
        kernel()
    );
}

#[test]
fn the_three_checksums_agree_on_every_length_offset_and_seeded_buffer() {
    let seed = seed_from_env(DEFAULT_SEED);
    let mut rng = StdRng::seed_from_u64(seed);
    println!(
        "HARNESS_SEED={seed}: dispatched kernel is {} (buffers of 64 bytes and more), \
         portable path called directly alongside",
        kernel()
    );

    // The standard check value, and the empty buffer.
    for f in [crc32, crc32_portable, crc32_bytewise] {
        assert_eq!(f(b"123456789"), 0xCBF4_3926);
        assert_eq!(f(b""), 0);
    }

    // Every length 0..=1100 at every start offset 0..16: all lane, block
    // and table-step boundaries (15/16/17, 63/64/65, 79/80/81, 127/128/129,
    // …), aligned and not.
    let mut buf = vec![0u8; 1100 + 16];
    rng.fill_bytes(&mut buf);
    for offset in 0..16 {
        for len in 0..=1100 {
            assert_agree(
                seed,
                format_args!("offset {offset} len {len}"),
                &buf[offset..offset + len],
            );
        }
    }

    // Degenerate contents the register could mask: all zeros, all ones.
    for fill in [0x00u8, 0xFF] {
        let flat = vec![fill; 4096 + 37];
        for len in [63, 64, 65, 128, 1000, flat.len()] {
            assert_agree(
                seed,
                format_args!("{len} bytes of {fill:#04x}"),
                &flat[..len],
            );
        }
    }

    // Seeded buffers up to 1 MiB, lengths spread over the magnitudes the
    // store checksums (a WAL frame, a run block, a snapshot).
    let mut big = vec![0u8; 1 << 20];
    rng.fill_bytes(&mut big);
    assert_agree(seed, format_args!("1 MiB"), &big);
    for case in 0..200 {
        let magnitude: u32 = rng.gen_range(6..=20);
        let len: usize = rng.gen_range(0..=(1usize << magnitude));
        let start: usize = rng.gen_range(0..=big.len() - len);
        assert_agree(
            seed,
            format_args!("case {case}: {len} bytes at {start}"),
            &big[start..start + len],
        );
    }
}
