//! Save/load integration: a trained model snapshot must reproduce the
//! exact same scores after rehydration — the deployment hand-off path.

use sccf::data::catalog::{ml1m_sim, Scale};
use sccf::data::synthetic::generate;
use sccf::data::LeaveOneOut;
use sccf::models::{Fism, FismConfig, Recommender, SasRec, SasRecConfig, TrainConfig};

fn world() -> LeaveOneOut {
    let mut cfg = ml1m_sim(Scale::Quick);
    cfg.n_users = 60;
    cfg.n_items = 80;
    LeaveOneOut::split(&generate(&cfg, 77).dataset)
}

#[test]
fn fism_roundtrip_preserves_scores() {
    let split = world();
    let cfg = FismConfig {
        train: TrainConfig {
            dim: 8,
            epochs: 3,
            ..Default::default()
        },
        ..Default::default()
    };
    let trained = Fism::train(&split, &cfg);
    let bytes = trained.save_bytes();
    let loaded = Fism::load_bytes(split.n_items(), &cfg, &bytes).unwrap();
    for u in split.test_users().iter().take(5) {
        let hist = split.train_plus_val(*u);
        assert_eq!(trained.score_all(*u, &hist), loaded.score_all(*u, &hist));
    }
}

#[test]
fn sasrec_roundtrip_preserves_scores() {
    let split = world();
    let cfg = SasRecConfig {
        train: TrainConfig {
            dim: 8,
            epochs: 2,
            ..Default::default()
        },
        max_len: 10,
        n_blocks: 1,
        ..Default::default()
    };
    let trained = SasRec::train(&split, &cfg);
    let bytes = trained.save_bytes();
    let loaded = SasRec::load_bytes(split.n_items(), &cfg, &bytes).unwrap();
    for u in split.test_users().iter().take(5) {
        let hist = split.train_plus_val(*u);
        assert_eq!(trained.score_all(*u, &hist), loaded.score_all(*u, &hist));
    }
}

#[test]
fn wrong_architecture_is_rejected() {
    let split = world();
    let cfg = FismConfig {
        train: TrainConfig {
            dim: 8,
            epochs: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let trained = Fism::train(&split, &cfg);
    let bytes = trained.save_bytes();
    // wrong dimension
    let bad_dim = FismConfig {
        train: TrainConfig {
            dim: 16,
            epochs: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    assert!(Fism::load_bytes(split.n_items(), &bad_dim, &bytes).is_err());
    // wrong catalog size
    assert!(Fism::load_bytes(split.n_items() + 1, &cfg, &bytes).is_err());
    // wrong table layout
    let sep = FismConfig {
        separate_output_table: true,
        ..cfg
    };
    assert!(Fism::load_bytes(split.n_items(), &sep, &bytes).is_err());
}

#[test]
fn snapshot_survives_disk_roundtrip() {
    let split = world();
    let cfg = FismConfig {
        train: TrainConfig {
            dim: 8,
            epochs: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let trained = Fism::train(&split, &cfg);
    let dir = std::env::temp_dir().join("sccf_snapshot_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fism.sccf");
    std::fs::write(&path, trained.save_bytes()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let loaded = Fism::load_bytes(split.n_items(), &cfg, &bytes).unwrap();
    let u = split.test_users()[0];
    let hist = split.train_plus_val(u);
    assert_eq!(trained.score_all(u, &hist), loaded.score_all(u, &hist));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn global_neighbor_snapshot_roundtrips_search_and_windows() {
    // The two-tier snapshot is an operational artifact (persist a
    // routing-warm tier alongside an engine snapshot): decoding it must
    // reproduce bit-identical searches and frozen windows.
    use sccf::core::GlobalNeighborSnapshot;
    let n_users = 40usize;
    let dim = 6usize;
    let mut rng = sccf::util::rng::rng_for(91, 4);
    use rand::Rng;
    let entries: Vec<(u32, Vec<f32>, Vec<u32>)> = (0..n_users as u32)
        .filter(|u| u % 5 != 3) // a few uncovered users
        .map(|u| {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let w: Vec<u32> = (0..(u % 7)).collect();
            (u, v, w)
        })
        .collect();
    let snap = GlobalNeighborSnapshot::build(3, n_users, dim, entries);
    let bytes = snap.encode();
    let back = GlobalNeighborSnapshot::decode(&bytes).expect("own artifact decodes");
    assert_eq!(back.epoch(), snap.epoch());
    assert_eq!(back.covered_users(), snap.covered_users());
    let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut a = Vec::new();
    let mut b = Vec::new();
    snap.search_append(&q, 10, &|_| false, &mut a);
    back.search_append(&q, 10, &|_| false, &mut b);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.score.to_bits(), y.score.to_bits());
    }
    for u in 0..n_users as u32 {
        assert_eq!(snap.frozen_window(u), back.frozen_window(u));
    }
    // Corruption is rejected, never a panic.
    assert!(GlobalNeighborSnapshot::decode(&bytes[..bytes.len() / 2]).is_err());
    assert!(GlobalNeighborSnapshot::decode(b"garbage").is_err());
}

#[test]
fn accelerated_tier_snapshot_roundtrips_and_rebuilds_byte_identically() {
    // The ANN tier structure rides inside the snapshot encoding;
    // decoding must reproduce it byte-for-byte, and —
    // because the build seed is carried explicitly — rebuilding from
    // the same entries must too (the determinism the refresh pipeline
    // relies on for reproducible fleets).
    use sccf::core::GlobalNeighborSnapshot;
    use sccf::index::FrozenTierMode;
    let n_users = 50usize;
    let dim = 6usize;
    let mut rng = sccf::util::rng::rng_for(17, 2);
    use rand::Rng;
    let entries: Vec<(u32, Vec<f32>, Vec<u32>)> = (0..n_users as u32)
        .map(|u| {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            (u, v, vec![u % 3])
        })
        .collect();
    let mode = FrozenTierMode::Hnsw { ef: 16 };
    let snap = GlobalNeighborSnapshot::build_with_mode(5, n_users, dim, mode, 77, entries.clone());
    assert_eq!(snap.tier_mode(), mode);
    let bytes = snap.encode();
    let back = GlobalNeighborSnapshot::decode(&bytes).expect("own artifact decodes");
    assert_eq!(back.encode(), bytes, "roundtrip must be byte-identical");
    let again = GlobalNeighborSnapshot::build_with_mode(5, n_users, dim, mode, 77, entries.clone());
    assert_eq!(
        again.encode(),
        bytes,
        "seeded rebuild must be byte-identical"
    );
    // Truncations anywhere in the accel section are typed errors.
    assert!(GlobalNeighborSnapshot::decode(&bytes[..bytes.len() - 3]).is_err());
}

/// Regression: `decode` never checked the accel section against the
/// frozen index beside it. The flat body of a 5-user snapshot with the
/// `SCCFAC01` section of a 10-user `Hnsw` one spliced on decoded `Ok`,
/// and the first search then indexed a 5-row slab with user id 5 — a
/// panic on the serving path (`Request::InstallTier` on a shard server).
#[test]
fn tier_accel_section_must_fit_the_index_it_sits_beside() {
    use sccf::core::{GlobalNeighborSnapshot, TierDecodeError};
    use sccf::index::{CodecError, FrozenTierMode};
    let dim = 4usize;
    let entries = |n: u32| (0..n).map(|u| (u, vec![1.0 + u as f32; dim], vec![u % 3]));
    let mode = FrozenTierMode::Hnsw { ef: 4 };
    let hnsw = GlobalNeighborSnapshot::build_with_mode(1, 10, dim, mode, 77, entries(10)).encode();
    let section = hnsw
        .windows(8)
        .position(|w| w == b"SCCFAC01")
        .expect("accel section");
    // A flat artifact ends with the zero length of its empty accel
    // section; the accelerated one's length prefix sits right before
    // its magic.
    let mut spliced = GlobalNeighborSnapshot::build(1, 5, dim, entries(5)).encode();
    spliced.truncate(spliced.len() - 8);
    spliced.extend_from_slice(&hnsw[section - 8..]);
    assert_eq!(
        GlobalNeighborSnapshot::decode(&spliced).err(),
        Some(TierDecodeError::Accel(CodecError::Invalid(
            "accel ids vs frozen index"
        )))
    );
}

// ------------------------------------------- corruption proptests
//
// Every `SCCF*` byte format shares one contract: a decoder fed
// truncated input or a corrupted length prefix returns a typed error —
// it never panics, never over-allocates on an oversized count (every
// multiply is `checked_mul`-guarded), and never half-applies. The
// properties below feed each public decoder every strict prefix and
// randomized byte corruption of a valid artifact.

use proptest::prelude::*;

/// A valid engine-snapshot artifact (`SCCFRT01`) and the histories it
/// encodes.
fn histories_artifact(seed: u64) -> (Vec<Vec<u32>>, Vec<u8>) {
    use proptest::Gen;
    let mut g = Gen::new(seed);
    let n_users = 1 + g.below(20) as usize;
    let histories: Vec<Vec<u32>> = (0..n_users)
        .map(|_| (0..g.below(12)).map(|_| g.below(500) as u32).collect())
        .collect();
    let bytes = sccf::core::encode_histories(&histories);
    (histories, bytes)
}

/// The shared decoder contract, exhaustively: *every* strict prefix is
/// a typed error, and overwriting any position with `u32::MAX` /
/// `u64::MAX` — every length or count field set to its type's maximum,
/// wherever the layout puts it — returns cleanly: no panic, no
/// allocation sized from the corrupt field (that would abort the test
/// process, not fail it).
fn assert_decoder_is_total<T, E>(bytes: &[u8], decode: impl Fn(&[u8]) -> Result<T, E>) {
    for cut in 0..bytes.len() {
        assert!(
            decode(&bytes[..cut]).is_err(),
            "the {cut}-byte strict prefix must not decode"
        );
    }
    let mut corrupt = bytes.to_vec();
    for width in [4usize, 8] {
        for at in 0..bytes.len().saturating_sub(width - 1) {
            corrupt[at..at + width].fill(0xFF);
            let _ = decode(&corrupt);
            corrupt[at..at + width].copy_from_slice(&bytes[at..at + width]);
        }
    }
}

/// Overwrite the `width`-byte field at `at` with all-ones.
fn with_max_field(bytes: &[u8], at: usize, width: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + width].fill(0xFF);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `SCCFRT01` (whole-engine snapshot): every strict prefix is a
    /// typed error, and arbitrary byte corruption never panics.
    #[test]
    fn histories_decoder_survives_truncation_and_corruption(
        seed in 0u64..10_000,
        cut_frac in 0.0f64..1.0,
        flip_pos in 0usize..4096,
        flip_bit in 0u8..8,
    ) {
        let (histories, bytes) = histories_artifact(seed);
        prop_assert_eq!(
            sccf::core::decode_histories(&bytes).expect("own artifact decodes"),
            histories
        );
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        prop_assert!(
            sccf::core::decode_histories(&bytes[..cut.min(bytes.len() - 1)]).is_err(),
            "a strict prefix must not decode"
        );
        let mut corrupt = bytes.clone();
        let pos = flip_pos % corrupt.len();
        corrupt[pos] ^= 1 << flip_bit;
        // Flips in id regions may decode to different content; flips in
        // a length prefix must be caught by the checked-length guards.
        // Either way: a clean return, never a panic or over-allocation.
        let _ = sccf::core::decode_histories(&corrupt);
        // The user count and every per-user length at its type's MAX.
        prop_assert!(sccf::core::decode_histories(&with_max_field(&bytes, 8, 8)).is_err());
        let mut at = 16;
        for h in &histories {
            prop_assert!(sccf::core::decode_histories(&with_max_field(&bytes, at, 4)).is_err());
            at += 4 + 4 * h.len();
        }
        assert_decoder_is_total(&bytes, sccf::core::decode_histories);
    }

    /// `SCCFUM01` (per-user state blob, the checkpoint payload): same
    /// contract as above.
    #[test]
    fn user_state_decoder_survives_truncation_and_corruption(
        user in 0u32..1000,
        rep in prop::collection::vec(-1.0f32..1.0, 0..16),
        history in prop::collection::vec(0u32..500, 0..24),
        cut_frac in 0.0f64..1.0,
        flip_pos in 0usize..4096,
        flip_bit in 0u8..8,
    ) {
        let bytes = sccf::core::encode_user_state(user, &rep, &history);
        let (u, r, h) = sccf::core::decode_user_state(&bytes).expect("own artifact decodes");
        prop_assert_eq!(u, user);
        prop_assert_eq!(r, rep);
        prop_assert_eq!(h, history);
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        prop_assert!(
            sccf::core::decode_user_state(&bytes[..cut.min(bytes.len() - 1)]).is_err(),
            "a strict prefix must not decode"
        );
        let mut corrupt = bytes.clone();
        let pos = flip_pos % corrupt.len();
        corrupt[pos] ^= 1 << flip_bit;
        let _ = sccf::core::decode_user_state(&corrupt);
        // Both length prefixes at u32::MAX.
        for at in [12, 16 + 4 * rep.len()] {
            prop_assert!(sccf::core::decode_user_state(&with_max_field(&bytes, at, 4)).is_err());
        }
        assert_decoder_is_total(&bytes, sccf::core::decode_user_state);
    }

    /// `SCCFWL01` (WAL): corruption anywhere makes the scan stop at a
    /// frame boundary — the surviving records are always an exact
    /// prefix of the original sequence, never a reordered or
    /// half-decoded subset (CRC framing catches every single-bit flip).
    #[test]
    fn wal_scan_yields_an_exact_prefix_under_any_corruption(
        n_records in 1usize..40,
        cut_frac in 0.0f64..1.0,
        flip_pos in 0usize..4096,
        flip_bit in 0u8..8,
    ) {
        use sccf::serving::wal;
        let dir = std::env::temp_dir()
            .join(format!("sccf_ser_wal_{}_{n_records}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = wal::wal_path(&dir, 0);
        let mut w = wal::WalWriter::create(&path, 4).unwrap();
        for k in 0..n_records as u64 {
            w.append(wal::WalRecord {
                seq: k + 1,
                user: (k * 7 % 64) as u32,
                item: (k * 13 % 64) as u32,
            })
            .unwrap();
        }
        w.sync().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        let clean = wal::scan_wal(&bytes).expect("own artifact scans clean");
        prop_assert_eq!(clean.records.len(), n_records);

        // Truncate anywhere past the magic: scan keeps whole frames only.
        let cut = wal::WAL_MAGIC.len()
            + ((bytes.len() - wal::WAL_MAGIC.len()) as f64 * cut_frac) as usize;
        let scan = wal::scan_wal(&bytes[..cut]).expect("torn tails are data, not errors");
        let whole = (cut - wal::WAL_MAGIC.len()) / wal::RECORD_FRAME_LEN;
        prop_assert_eq!(scan.records.len(), whole);

        // Flip one bit anywhere past the magic: the records that survive
        // are an exact prefix of the clean sequence.
        let mut corrupt = bytes.clone();
        let pos = wal::WAL_MAGIC.len() + flip_pos % (corrupt.len() - wal::WAL_MAGIC.len());
        corrupt[pos] ^= 1 << flip_bit;
        let scan = wal::scan_wal(&corrupt).expect("corrupt tails are data, not errors");
        prop_assert!(scan.records.len() < n_records, "CRC must catch every single-bit flip");
        for (got, want) in scan.records.iter().zip(&clean.records) {
            prop_assert_eq!(got, want);
        }
    }

    /// `SCCFCP01` (checkpoint): all-or-nothing — every strict prefix
    /// and every single-bit flip is a typed error (header and every
    /// blob are CRC-framed; the entry count is sanity-bounded against
    /// the remaining bytes, so an oversized count cannot drive an
    /// allocation).
    #[test]
    fn checkpoint_decoder_is_all_or_nothing(
        n_blobs in 0usize..10,
        blob_len in 1usize..40,
        cut_frac in 0.0f64..1.0,
        flip_pos in 0usize..4096,
        flip_bit in 0u8..8,
    ) {
        use sccf::serving::wal;
        let blobs: Vec<Vec<u8>> = (0..n_blobs)
            .map(|b| (0..blob_len).map(|i| (b * 31 + i) as u8).collect())
            .collect();
        let bytes = wal::encode_checkpoint(3, 999, &blobs);
        let ck = wal::decode_checkpoint(&bytes).expect("own artifact decodes");
        prop_assert_eq!(ck.epoch, 3);
        prop_assert_eq!(ck.watermark, 999);
        prop_assert_eq!(&ck.blobs, &blobs);

        let cut = (bytes.len() as f64 * cut_frac) as usize;
        prop_assert!(
            wal::decode_checkpoint(&bytes[..cut.min(bytes.len() - 1)]).is_err(),
            "a strict prefix must not decode"
        );
        let mut corrupt = bytes.clone();
        let pos = flip_pos % corrupt.len();
        corrupt[pos] ^= 1 << flip_bit;
        prop_assert!(
            wal::decode_checkpoint(&corrupt).is_err(),
            "flip at byte {pos} went undetected"
        );
    }

    /// `SCCFGT02`/`SCCFFZ01`/`SCCFAC01` (global-tier snapshot and its
    /// embedded frozen/accelerator sections): truncation is always a
    /// typed error; arbitrary corruption never panics.
    #[test]
    fn tier_snapshot_decoder_survives_truncation_and_corruption(
        seed in 0u64..10_000,
        cut_frac in 0.0f64..1.0,
        flip_pos in 0usize..65_536,
        flip_bit in 0u8..8,
    ) {
        use proptest::Gen;
        use sccf::core::{GlobalNeighborSnapshot, TierDecodeError};
        use sccf::index::CodecError;
        let mut g = Gen::new(seed);
        let dim = 4usize;
        let n_users = 2 + g.below(30) as usize;
        let entries: Vec<(u32, Vec<f32>, Vec<u32>)> = (0..n_users as u32)
            .map(|u| {
                let v: Vec<f32> = (0..dim).map(|_| g.unit_f64() as f32 - 0.5).collect();
                let w: Vec<u32> = (0..g.below(5)).map(|_| g.below(64) as u32).collect();
                (u, v, w)
            })
            .collect();
        let accel_entries = entries.clone();
        let snap = GlobalNeighborSnapshot::build(1, n_users, dim, entries);
        let bytes = snap.encode();
        prop_assert!(GlobalNeighborSnapshot::decode(&bytes).is_ok());

        let cut = (bytes.len() as f64 * cut_frac) as usize;
        prop_assert!(
            GlobalNeighborSnapshot::decode(&bytes[..cut.min(bytes.len() - 1)]).is_err(),
            "a strict prefix must not decode"
        );
        let mut corrupt = bytes.clone();
        let pos = flip_pos % corrupt.len();
        corrupt[pos] ^= 1 << flip_bit;
        let _ = GlobalNeighborSnapshot::decode(&corrupt);
        // The population count at u64::MAX, then the exhaustive sweep —
        // over the flat artifact and over the accelerated one, whose
        // `SCCFAC01`/`SCCFHN01` sections carry a dozen more counts.
        prop_assert!(GlobalNeighborSnapshot::decode(&with_max_field(&bytes, 16, 8)).is_err());
        assert_decoder_is_total(&bytes, GlobalNeighborSnapshot::decode);
        use sccf::index::FrozenTierMode;
        let accel = GlobalNeighborSnapshot::build_with_mode(
            1, n_users, dim, FrozenTierMode::Hnsw { ef: 8 }, seed, accel_entries,
        )
        .encode();
        prop_assert!(GlobalNeighborSnapshot::decode(&accel).is_ok());
        assert_decoder_is_total(&accel, GlobalNeighborSnapshot::decode);
        // Mode tag 2 named the retired IVF-PQ tier: a typed error, like
        // any tag the format never had.
        let tag_at = accel.windows(8).position(|w| w == b"SCCFAC01").expect("accel section") + 8;
        for tag in [2u8, 0, 0xff] {
            let mut retired = accel.clone();
            retired[tag_at] = tag;
            prop_assert_eq!(
                GlobalNeighborSnapshot::decode(&retired).err(),
                Some(TierDecodeError::Accel(CodecError::Invalid("accel mode tag")))
            );
        }
    }

    /// The `SCCF` parameter store (model weights, read on every
    /// `serve-shard` start): same contract. Its name length, shape and
    /// parameter count used to size allocations unchecked.
    #[test]
    fn param_store_decoder_survives_truncation_and_corruption(seed in 0u64..10_000) {
        use proptest::Gen;
        use sccf::tensor::{load_store, save_store, Mat, ParamStore};
        let mut g = Gen::new(seed);
        let mut store = ParamStore::new();
        for p in 0..1 + g.below(3) {
            let (rows, cols) = (g.below(4) as usize, 1 + g.below(4) as usize);
            let data = (0..rows * cols).map(|_| g.unit_f64() as f32).collect();
            let value = Mat::from_vec(rows, cols, data);
            if g.below(2) == 0 {
                store.add(format!("p{p}"), value);
            } else {
                store.add_sparse(format!("p{p}"), value);
            }
        }
        let bytes = save_store(&store);
        prop_assert_eq!(save_store(&load_store(&bytes).expect("own artifact decodes")), bytes.clone());
        // The parameter count at u32::MAX.
        prop_assert!(load_store(&with_max_field(&bytes, 8, 4)).is_err());
        assert_decoder_is_total(&bytes, load_store);
    }
}

// ------------------------------------ fleet wire protocol (sccf-net)

/// A deterministic mixed bag of fleet requests for the stream
/// properties below.
fn fleet_requests(seed: u64, n: usize) -> Vec<sccf::net::Request> {
    use proptest::Gen;
    use sccf::net::Request;
    use sccf::serving::RecQuery;
    let mut g = Gen::new(seed);
    (0..n)
        .map(|_| match g.below(6) {
            0 => Request::Ping,
            1 => Request::IngestBatch(
                (0..g.below(8))
                    .map(|_| (g.below(100) as u32, g.below(100) as u32))
                    .collect(),
            ),
            2 => Request::Recommend {
                user: g.below(100) as u32,
                query: RecQuery::top(1 + g.below(10) as usize),
            },
            3 => Request::Flush,
            4 => Request::ExportUsers((0..g.below(6)).map(|_| g.below(100) as u32).collect()),
            _ => Request::Checkpoint,
        })
        .collect()
}

/// Frame `reqs` into one contiguous stream; returns the stream and the
/// byte offset where each frame ends.
fn framed_stream(reqs: &[sccf::net::Request]) -> (Vec<u8>, Vec<usize>) {
    use sccf::net::proto::write_message;
    let mut stream = Vec::new();
    let mut ends = Vec::new();
    for r in reqs {
        write_message(&mut stream, &r.encode()).expect("Vec sink never fails");
        ends.push(stream.len());
    }
    (stream, ends)
}

/// Scan a framed stream to exhaustion: recovered messages, plus whether
/// the stream ended cleanly (EOF at a frame boundary) or torn/corrupt.
fn scan_stream(mut cursor: &[u8]) -> (Vec<sccf::net::Request>, bool) {
    use sccf::net::proto::read_message;
    use sccf::net::Request;
    let mut buf = Vec::new();
    let mut got = Vec::new();
    let clean = loop {
        match read_message(&mut cursor, &mut buf) {
            Ok(Some(())) => match Request::decode(&buf) {
                Ok(r) => got.push(r),
                Err(_) => break false,
            },
            Ok(None) => break true,
            Err(_) => break false,
        }
    };
    (got, clean)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fleet frame scan under truncation: the survivors are exactly the
    /// frames fully contained in the cut — an exact prefix of what was
    /// sent — and the scan reports clean EOF iff the cut lands on a
    /// frame boundary.
    #[test]
    fn fleet_stream_truncation_recovers_exact_prefix(
        seed in 0u64..10_000,
        n in 1usize..8,
        cut_frac in 0.0f64..1.0,
    ) {
        let reqs = fleet_requests(seed, n);
        let (stream, ends) = framed_stream(&reqs);
        let cut = (stream.len() as f64 * cut_frac) as usize;
        let n_complete = ends.iter().filter(|&&e| e <= cut).count();
        let (got, clean) = scan_stream(&stream[..cut]);
        prop_assert_eq!(&got[..], &reqs[..n_complete], "survivors must be an exact prefix");
        prop_assert_eq!(clean, cut == 0 || ends.contains(&cut));
    }

    /// Single-bit corruption anywhere in a framed stream: frames before
    /// the flip are recovered intact, the flipped frame is rejected by
    /// the CRC, and nothing panics. A corrupted stream can never
    /// surface an altered message as valid.
    #[test]
    fn fleet_stream_bit_flips_are_detected(
        seed in 0u64..10_000,
        n in 1usize..8,
        flip_pos in 0usize..65_536,
        flip_bit in 0u8..8,
    ) {
        let reqs = fleet_requests(seed, n);
        let (mut stream, ends) = framed_stream(&reqs);
        let pos = flip_pos % stream.len();
        stream[pos] ^= 1 << flip_bit;
        // The frame whose bytes contain `pos` is the first casualty.
        let corrupt_idx = ends.partition_point(|&e| e <= pos);
        let (got, clean) = scan_stream(&stream);
        prop_assert_eq!(&got[..], &reqs[..corrupt_idx]);
        prop_assert!(!clean, "a flipped bit must not scan as a clean stream");
    }

    /// The payload decoders themselves: every strict prefix of an
    /// encoded request is a typed error, and arbitrary byte corruption
    /// never panics or over-allocates.
    #[test]
    fn fleet_request_decoder_survives_truncation_and_corruption(
        seed in 0u64..10_000,
        cut_frac in 0.0f64..1.0,
        flip_pos in 0usize..65_536,
        flip_bit in 0u8..8,
    ) {
        use sccf::net::Request;
        let req = fleet_requests(seed, 1).pop().expect("one request");
        let bytes = req.encode();
        prop_assert_eq!(Request::decode(&bytes).expect("own encoding decodes"), req);
        let cut = ((bytes.len() as f64 * cut_frac) as usize).min(bytes.len() - 1);
        prop_assert!(Request::decode(&bytes[..cut]).is_err(), "a strict prefix must not decode");
        let mut corrupt = bytes.clone();
        let pos = flip_pos % corrupt.len();
        corrupt[pos] ^= 1 << flip_bit;
        // Tag or count flips must fail cleanly; value flips may decode
        // to different content. Either way: no panic, no OOM.
        let _ = Request::decode(&corrupt);
        assert_decoder_is_total(&bytes, Request::decode);
    }
}

/// Wire v3: a `ServingStats` whose timings carry populated latency
/// buckets crosses the wire with every quantile bit-equal — fleet-wide
/// and per shard — and its decoder is total (every strict prefix is an
/// error; an all-ones field anywhere, e.g. a bucket pair count the
/// payload cannot hold, neither panics nor over-allocates).
#[test]
fn stats_with_latency_buckets_roundtrip_with_every_quantile_bit_equal() {
    use sccf::core::{EngineTimings, EventTiming};
    use sccf::net::Response;
    use sccf::serving::sharded::ShardReport;
    use sccf::serving::ServingStats;
    let shard = |shard: usize, scale: f64| {
        let mut timings = EngineTimings::default();
        for k in 0..500u32 {
            timings.record(EventTiming {
                infer_ms: scale * (0.01 + (k as f64 * 0.37).sin().abs()),
                identify_ms: scale * 1e-4 * (1.0 + k as f64),
            });
        }
        ShardReport {
            shard,
            events: 500,
            recommends: 0,
            timings,
            retired: false,
            queue_capacity: 64,
            tier_dirty: 0,
        }
    };
    let stats = ServingStats::from_shards(vec![shard(0, 1.0), shard(1, 30.0)]);
    let bytes = Response::Stats(Box::new(stats.clone())).encode();
    let back = match Response::decode(&bytes).expect("own encoding decodes") {
        Response::Stats(s) => *s,
        other => panic!("expected Stats, got {other:?}"),
    };
    let recorders = |s: &ServingStats| {
        let mut all = vec![s.timings.clone()];
        all.extend(s.shards.iter().map(|r| r.timings.clone()));
        all.into_iter().flat_map(|t| [t.infer, t.identify])
    };
    for (sent, got) in recorders(&stats).zip(recorders(&back)) {
        assert_eq!(sent.count(), got.count());
        for k in 0..=200 {
            let q = k as f64 / 200.0;
            assert_eq!(sent.quantile_ms(q).to_bits(), got.quantile_ms(q).to_bits());
        }
    }
    assert_decoder_is_total(&bytes, Response::decode);
}

// -------------------------------- pipelined stream delivery hazards
//
// A pipelined connection keeps several frames back-to-back on one TCP
// stream, and the kernel is free to deliver them in arbitrary
// fragments (partial reads) or accept them in arbitrary slivers
// (short writes). The framing layer must reassemble the exact frame
// sequence regardless — the FIFO request/response pairing the fleet
// router relies on is only sound if fragmentation can never reorder,
// merge, or bleed bytes across frames.

/// A reader that fragments the stream into tiny variable-size chunks —
/// the pathological TCP delivery `read_message` must reassemble.
struct ChoppyReader<'a> {
    data: &'a [u8],
    pos: usize,
    sizes: Vec<usize>,
    k: usize,
}

impl std::io::Read for ChoppyReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.data.len() {
            return Ok(0);
        }
        let want = self.sizes[self.k % self.sizes.len()].max(1);
        self.k += 1;
        let n = want.min(out.len()).min(self.data.len() - self.pos);
        out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A writer that accepts only a few bytes per call (short writes) and
/// dies outright once `budget` total bytes have been taken — the
/// mid-frame connection loss a poisoned `Connection` models.
struct DribbleWriter {
    out: Vec<u8>,
    sizes: Vec<usize>,
    k: usize,
    budget: usize,
}

impl std::io::Write for DribbleWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.out.len() >= self.budget {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "wire died mid-stream",
            ));
        }
        let want = self.sizes[self.k % self.sizes.len()].max(1);
        self.k += 1;
        let n = want.min(buf.len()).min(self.budget - self.out.len());
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Partial reads: a pipelined stream delivered in arbitrary tiny
    /// fragments reassembles to exactly the sent frame sequence — same
    /// frames, same order, no bytes bleeding across frame boundaries,
    /// clean EOF at the end.
    #[test]
    fn pipelined_stream_survives_arbitrary_read_fragmentation(
        seed in 0u64..10_000,
        n in 1usize..10,
        sizes in prop::collection::vec(1usize..7, 1..8),
    ) {
        use sccf::net::proto::read_message;
        use sccf::net::Request;
        let reqs = fleet_requests(seed, n);
        let (stream, _) = framed_stream(&reqs);
        let mut rd = ChoppyReader { data: &stream, pos: 0, sizes: sizes.clone(), k: 0 };
        let mut buf = Vec::new();
        let mut got = Vec::new();
        loop {
            match read_message(&mut rd, &mut buf) {
                Ok(Some(())) => got.push(
                    Request::decode(&buf).expect("reassembled frame decodes intact"),
                ),
                Ok(None) => break,
                Err(e) => prop_assert!(
                    false,
                    "fragmented delivery of a clean stream must not error: {e}"
                ),
            }
        }
        prop_assert_eq!(&got[..], &reqs[..], "fragmentation reordered or bled frames");
    }

    /// Short writes: frames pushed through a writer that takes only a
    /// few bytes per call and dies mid-stream leave a byte-exact prefix
    /// of the clean stream on the wire. Scanning that prefix recovers
    /// exactly the fully-written frames — a torn trailing frame is
    /// detected, never surfaced as a message, and nothing panics.
    #[test]
    fn pipelined_short_writes_leave_an_exact_survivor_prefix(
        seed in 0u64..10_000,
        n in 1usize..10,
        sizes in prop::collection::vec(1usize..7, 1..8),
        budget_frac in 0.0f64..1.25,
    ) {
        use sccf::net::proto::write_message;
        let reqs = fleet_requests(seed, n);
        let (full, ends) = framed_stream(&reqs);
        let budget = (full.len() as f64 * budget_frac) as usize;
        let mut w = DribbleWriter { out: Vec::new(), sizes: sizes.clone(), k: 0, budget };
        let mut accepted = 0usize;
        for r in &reqs {
            match write_message(&mut w, &r.encode()) {
                Ok(()) => accepted += 1,
                Err(_) => break, // poison point: no further frames enter the wire
            }
        }
        // Whatever reached the wire is a byte-exact prefix of the clean
        // stream — short writes never duplicated or skipped bytes.
        prop_assert_eq!(&w.out[..], &full[..w.out.len()]);
        // The receiver recovers exactly the frames fully on the wire.
        let n_complete = ends.iter().filter(|&&e| e <= w.out.len()).count();
        let (got, clean) = scan_stream(&w.out);
        prop_assert_eq!(&got[..], &reqs[..n_complete], "survivors must be an exact prefix");
        prop_assert!(accepted >= n_complete, "a frame cannot survive unacknowledged");
        if budget >= full.len() {
            prop_assert_eq!(accepted, n);
            prop_assert!(clean, "an undamaged stream must scan to clean EOF");
        }
    }
}

// ------------------------------------------------------ golden bytes
//
// Every other pin in this file compares two encoders that change
// together (encode → decode → re-encode). The table below pins each
// byte format *absolutely*: one fixed fixture per format, CRC-32 of its
// encoding. A digest moves only when bytes on disk or on the wire move
// — which needs a magic/version bump, not a refactor.

/// Deterministic, rand-free fixture values in (-1, 1).
fn golden_vec(seed: u32, dim: usize) -> Vec<f32> {
    (0..dim as u32)
        .map(|j| (((seed * 31 + j * 17 + 7) % 41) as f32 - 20.0) / 21.0)
        .collect()
}

fn golden_entries(n_users: u32, dim: usize) -> Vec<(u32, Vec<f32>, Vec<u32>)> {
    (0..n_users)
        .filter(|u| u % 7 != 5) // a few uncovered users
        .map(|u| (u, golden_vec(u, dim), (0..u % 4).map(|k| u + k).collect()))
        .collect()
}

/// One fixed artifact per byte format, by name.
fn golden_fixtures() -> Vec<(String, Vec<u8>)> {
    use sccf::core::{EngineTimings, EventTiming, GlobalNeighborSnapshot, TIER_BUILD_SEED};
    use sccf::index::{FlatIndex, FrozenTierMode, HnswConfig, HnswIndex, Metric};
    use sccf::models::{AnyModel, Envelope, ModelHeader, ModelKind};
    use sccf::net::{Request, Response, PROTOCOL_VERSION};
    use sccf::serving::api::{
        DurabilityStats, MigrationStats, NeighborhoodStats, PressureStats, RecQuery, RecResponse,
        ServingError, ServingStats, TransportStats,
    };
    use sccf::serving::sharded::ShardReport;
    use sccf::serving::wal;
    use sccf::tensor::{Mat, ParamStore};
    use sccf::util::topk::Scored;

    let mut out: Vec<(String, Vec<u8>)> = Vec::new();

    // SCCFRT01 / SCCFUM01
    let histories: Vec<Vec<u32>> = (0..9u32)
        .map(|u| (0..u % 5).map(|k| u * 3 + k).collect())
        .collect();
    out.push(("histories".into(), sccf::core::encode_histories(&histories)));
    out.push((
        "user_state".into(),
        sccf::core::encode_user_state(42, &golden_vec(42, 6), &[5, 1, 4, 1]),
    ));

    // SCCFFZ01, SCCFGT02 (+ SCCFAC01 / SCCFHN01 inside the accelerated ones)
    let (n_users, dim) = (48u32, 6usize);
    let rows = golden_entries(n_users, dim)
        .into_iter()
        .map(|(u, v, _)| (u, v));
    out.push((
        "frozen_index".into(),
        FlatIndex::from_rows(n_users as usize, dim, rows).encode(),
    ));
    for (name, mode) in [
        ("tier_flat", FrozenTierMode::Flat),
        ("tier_hnsw", FrozenTierMode::Hnsw { ef: 16 }),
    ] {
        let snap = GlobalNeighborSnapshot::build_with_mode(
            5,
            n_users as usize,
            dim,
            mode,
            TIER_BUILD_SEED,
            golden_entries(n_users, dim),
        );
        out.push((name.into(), snap.encode()));
    }
    let mut hnsw = HnswIndex::new(dim, Metric::Cosine, HnswConfig::default());
    for u in 0..40 {
        hnsw.add(&golden_vec(u, dim));
    }
    let mut section = Vec::new();
    hnsw.encode_into(&mut section);
    out.push(("hnsw_section".into(), section));

    // SCCFCP01 / SCCFWL01
    let blobs: Vec<Vec<u8>> = (0..3u32)
        .map(|u| sccf::core::encode_user_state(u, &golden_vec(u, 4), &[u, u + 1]))
        .collect();
    out.push(("checkpoint".into(), wal::encode_checkpoint(3, 999, &blobs)));
    let dir = std::env::temp_dir().join(format!("sccf_golden_wal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = wal::wal_path(&dir, 0);
    let mut w = wal::WalWriter::create(&path, 1).unwrap();
    w.append(wal::WalRecord {
        seq: 0x0102_0304_0506_0708,
        user: 77,
        item: 1234,
    })
    .unwrap();
    w.sync().unwrap();
    out.push((
        "wal_magic_and_one_frame".into(),
        std::fs::read(&path).unwrap(),
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // "SCCF" param store
    let mut store = ParamStore::new();
    let wid = store.add("w", Mat::from_vec(2, 3, golden_vec(1, 6)));
    store.add_sparse("emb", Mat::from_vec(3, 2, golden_vec(2, 6)));
    store.param_mut(wid).m = Mat::filled(2, 3, 0.5);
    store.param_mut(wid).v = Mat::filled(2, 3, 0.25);
    out.push(("param_store".into(), sccf::tensor::save_store(&store)));

    // SCCFMDL2: a tiny FISM model file (4 items × dim 2) that loads
    let mut fism = ParamStore::new();
    fism.add_sparse("fism.p", Mat::from_vec(4, 2, golden_vec(3, 8)));
    let weights = sccf::tensor::save_store(&fism);
    let header = ModelHeader {
        kind: ModelKind::Fism,
        dim: 2,
        max_len: 0,
        n_items: 4,
        seed: 9,
    };
    let file = Envelope {
        header,
        weights: &weights,
    }
    .encode();
    let model = Envelope::decode(&file).and_then(|env| env.load());
    assert!(matches!(model, Ok(AnyModel::Fism(_))));
    out.push(("model_file".into(), file));

    // wire v3: one of every request and response variant
    let query = RecQuery {
        k: 5,
        source: sccf::core::CandidateSource::Exact,
        exclude: sccf::core::Exclusion::HistoryAnd(vec![1, 2, 3]),
    };
    for (name, req) in [
        (
            "Hello",
            Request::Hello {
                protocol: PROTOCOL_VERSION,
            },
        ),
        ("Ping", Request::Ping),
        (
            "IngestBatch",
            Request::IngestBatch(vec![(0, 1), (7, 42), (u32::MAX, 0)]),
        ),
        (
            "Recommend",
            Request::Recommend {
                user: 3,
                query: query.clone(),
            },
        ),
        (
            "RecommendMany",
            Request::RecommendMany {
                users: vec![1, 2, 3],
                query: RecQuery::top(4).with_source(sccf::core::CandidateSource::Ann),
            },
        ),
        ("Flush", Request::Flush),
        ("Stats", Request::Stats),
        ("Snapshot", Request::Snapshot),
        ("Checkpoint", Request::Checkpoint),
        ("WalSync", Request::WalSync),
        ("ExportUsers", Request::ExportUsers(vec![9, 8, 7])),
        ("InstallTier", Request::InstallTier(vec![1, 2, 3, 4, 5])),
        ("ClearTier", Request::ClearTier),
        ("Shutdown", Request::Shutdown),
    ] {
        out.push((format!("req_{name}"), req.encode()));
    }

    let mut timings = EngineTimings::default();
    timings.record(EventTiming {
        infer_ms: 0.25,
        identify_ms: 0.5,
    });
    timings.record(EventTiming {
        infer_ms: 1.0 / 3.0,
        identify_ms: 2.0 / 7.0,
    });
    let stats = ServingStats {
        events: 12,
        recommends: 3,
        timings: timings.clone(),
        shards: vec![ShardReport {
            shard: 2,
            events: 12,
            recommends: 3,
            timings,
            retired: false,
            queue_capacity: 1024,
            tier_dirty: 7,
        }],
        migration: MigrationStats {
            in_progress: true,
            migrated_users: 4,
            pending_users: 5,
            batches: 6,
        },
        neighborhood: NeighborhoodStats {
            two_tier: true,
            epoch: 3,
            users_covered: 100,
            events_since_refresh: 17,
            last_refresh_ms: 1.5,
            refresh_in_progress: false,
            tier_mode: FrozenTierMode::Hnsw { ef: 48 },
            tier_bytes: 4096,
            tier_search_ns: 12345.6,
            last_refresh_users: 33,
            delta_ready: true,
        },
        durability: DurabilityStats {
            enabled: true,
            wal_records: 100,
            wal_bytes: 2500,
            wal_unsynced_bytes: 25,
            wal_syncs: 12,
            checkpoints: 2,
            checkpoint_watermark: 96,
            last_checkpoint_bytes: 999,
            events_since_checkpoint: 4,
        },
        pressure: PressureStats {
            sends: 900,
            stalls: 13,
            stall_ms: 2.75,
            queue_capacity: 1024,
            peak_queue: 768,
        },
        transport: TransportStats {
            requests: 4321,
            read_ahead_hits: 1234,
            peak_read_ahead: 4,
            read_ahead_capacity: 4,
        },
    };
    let slate = RecResponse {
        items: vec![
            Scored {
                id: 7,
                score: 0.125,
            },
            Scored {
                id: 8,
                score: -1.0 / 3.0,
            },
        ],
        timing: EventTiming {
            infer_ms: 0.1,
            identify_ms: 0.2,
        },
    };
    for (name, resp) in [
        (
            "HelloOk",
            Response::HelloOk {
                protocol: PROTOCOL_VERSION,
                n_users: 120,
                n_items: 60,
                base: 2,
                count: 2,
                total: 4,
            },
        ),
        ("Pong", Response::Pong),
        ("Ingested", Response::Ingested(42)),
        ("Slate", Response::Slate(slate.clone())),
        (
            "Slates",
            Response::Slates(vec![
                slate,
                RecResponse {
                    items: vec![],
                    timing: EventTiming {
                        infer_ms: 0.0,
                        identify_ms: 0.0,
                    },
                },
            ]),
        ),
        ("Done", Response::Done),
        ("Stats", Response::Stats(Box::new(stats))),
        ("Bytes", Response::Bytes(vec![0xde, 0xad])),
        ("Watermark", Response::Watermark(1234)),
        ("Blobs", Response::Blobs(vec![vec![1], vec![], vec![2, 3]])),
        (
            "Err_UnknownUser",
            Response::Err(ServingError::UnknownUser {
                user: 9,
                n_users: 4,
            }),
        ),
        (
            "Err_UnknownItem",
            Response::Err(ServingError::UnknownItem {
                item: 9,
                n_items: 4,
            }),
        ),
        (
            "Err_AnnUnavailable",
            Response::Err(ServingError::AnnUnavailable),
        ),
        (
            "Err_NotOwned",
            Response::Err(ServingError::NotOwned { user: 5 }),
        ),
        (
            "Err_InvalidConfig",
            Response::Err(ServingError::InvalidConfig("bad".into())),
        ),
        (
            "Err_Durability",
            Response::Err(ServingError::Durability("disk".into())),
        ),
        ("Err_Wire", Response::Err(ServingError::Wire("torn".into()))),
    ] {
        out.push((format!("resp_{name}"), resp.encode()));
    }
    // The framed form of one message (length + CRC header).
    let mut framed = Vec::new();
    sccf::net::proto::write_message(&mut framed, &Request::Ping.encode()).unwrap();
    out.push(("framed_Ping".into(), framed));
    out
}

/// CRC-32 of every fixture above, computed at the commit *before* the
/// shared `sccf_util::codec` cursor replaced the per-format readers
/// and writers (see CHANGES.md, PR 19) and not regenerated since —
/// except the three rows wire v3 moved on purpose (CHANGES.md, PR 25):
/// `req_Hello` / `resp_HelloOk` carry version 3, `resp_Stats` carries
/// each timing's bucket section. `model_file` (`SCCFMDL2`) was added
/// when the model file became one format.
const GOLDEN_DIGESTS: &[(&str, u32)] = &[
    ("histories", 0x776113a8),
    ("user_state", 0xe13dc961),
    ("frozen_index", 0x6952a226),
    ("tier_flat", 0xce4f9132),
    ("tier_hnsw", 0x506e8e9a),
    ("hnsw_section", 0x807bdc4c),
    ("checkpoint", 0x290ac080),
    ("wal_magic_and_one_frame", 0x5dea18af),
    ("param_store", 0xaac45f28),
    ("model_file", 0x2144df1c),
    ("req_Hello", 0xd49758f3),
    ("req_Ping", 0xa505df1b),
    ("req_IngestBatch", 0x2ec3c3e8),
    ("req_Recommend", 0xce20bb34),
    ("req_RecommendMany", 0x4377c28c),
    ("req_Flush", 0xa2681b02),
    ("req_Stats", 0x3b614ab8),
    ("req_Snapshot", 0x4c667a2e),
    ("req_Checkpoint", 0xdcd967bf),
    ("req_WalSync", 0xabde5729),
    ("req_ExportUsers", 0xfc0099d7),
    ("req_InstallTier", 0x02859fd0),
    ("req_ClearTier", 0xdbb4a3a6),
    ("req_Shutdown", 0xacb39330),
    ("resp_HelloOk", 0x0e092517),
    ("resp_Pong", 0xa505df1b),
    ("resp_Ingested", 0xa04942b6),
    ("resp_Slate", 0xea2d092a),
    ("resp_Slates", 0xd94c15ba),
    ("resp_Done", 0xa2681b02),
    ("resp_Stats", 0x9a4a504f),
    ("resp_Bytes", 0xf1954396),
    ("resp_Watermark", 0xeda6e3c4),
    ("resp_Blobs", 0x1211916b),
    ("resp_Err_UnknownUser", 0x1a6f9737),
    ("resp_Err_UnknownItem", 0xc7f94eb2),
    ("resp_Err_AnnUnavailable", 0x55389b59),
    ("resp_Err_NotOwned", 0x60270827),
    ("resp_Err_InvalidConfig", 0xd2a59d33),
    ("resp_Err_Durability", 0x3095292e),
    ("resp_Err_Wire", 0xb0baab03),
    ("framed_Ping", 0x3ac9b560),
];

#[test]
fn format_bytes_are_pinned() {
    let got: Vec<(String, u32)> = golden_fixtures()
        .into_iter()
        .map(|(name, bytes)| (name, sccf::util::crc32(&bytes)))
        .collect();
    let table: String = got
        .iter()
        .map(|(n, d)| format!("    (\"{n}\", {d:#010x}),\n"))
        .collect();
    assert_eq!(
        got.len(),
        GOLDEN_DIGESTS.len(),
        "fixture list changed; current digests:\n{table}"
    );
    for ((name, digest), (want_name, want)) in got.iter().zip(GOLDEN_DIGESTS) {
        assert_eq!(name, want_name, "fixture order changed");
        assert_eq!(
            digest, want,
            "{name}: encoded bytes moved; current digests:\n{table}"
        );
    }
}
