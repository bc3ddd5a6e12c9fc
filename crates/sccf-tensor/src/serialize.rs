//! Binary snapshots of a [`ParamStore`] — save a trained model, load it
//! back later (deployment hand-off, warm restarts, A/B twins).
//!
//! Format (little-endian, versioned):
//!
//! ```text
//! magic "SCCF" | u32 version | u32 n_params
//! per param: u32 name_len | name bytes | u8 sparse | u32 rows | u32 cols
//!            | rows·cols f32 value | rows·cols f32 adam_m | rows·cols f32 adam_v
//! ```
//!
//! Adam moments are included so training can resume exactly where it
//! stopped. Loading is strict: corrupt or truncated input returns an
//! error rather than a half-initialized store, and
//! [`load_into`] additionally verifies that parameter names and shapes
//! match the receiving architecture (the safe way to rehydrate a model
//! built from its config).

use sccf_util::codec::{put_f32s, put_u32, put_u8, DecodeError, Reader};

use crate::mat::Mat;
use crate::store::ParamStore;

const MAGIC: &[u8; 4] = b"SCCF";
const VERSION: u32 = 1;

/// Serialization errors.
#[derive(Debug, PartialEq, Eq)]
pub enum SnapshotError {
    BadMagic,
    UnsupportedVersion(u32),
    Truncated,
    /// Parameter mismatch while loading into an existing architecture.
    Mismatch(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not an SCCF snapshot"),
            SnapshotError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            SnapshotError::Truncated => write!(f, "truncated snapshot"),
            SnapshotError::Mismatch(m) => write!(f, "parameter mismatch: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<DecodeError> for SnapshotError {
    /// A name that is not UTF-8 has always read as a damaged stream.
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::BadMagic => SnapshotError::BadMagic,
            DecodeError::Truncated | DecodeError::Invalid(_) => SnapshotError::Truncated,
        }
    }
}

/// Serialize every parameter (values + Adam moments) into a byte buffer.
pub fn save_store(store: &ParamStore) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + store.n_scalars() * 12);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_u32(&mut out, store.len() as u32);
    for (_, p) in store.iter() {
        put_u32(&mut out, p.name.len() as u32);
        out.extend_from_slice(p.name.as_bytes());
        put_u8(&mut out, p.sparse as u8);
        put_u32(&mut out, p.value.rows() as u32);
        put_u32(&mut out, p.value.cols() as u32);
        put_f32s(&mut out, p.value.data());
        put_f32s(&mut out, p.m.data());
        put_f32s(&mut out, p.v.data());
    }
    out
}

struct RawParam {
    name: String,
    sparse: bool,
    value: Mat,
    m: Mat,
    v: Mat,
}

/// Smallest encoded parameter: empty name, flag, two dimensions.
const MIN_PARAM_LEN: usize = 4 + 1 + 4 + 4;

fn parse(bytes: &[u8]) -> Result<Vec<RawParam>, SnapshotError> {
    let mut r = Reader::new(bytes);
    r.magic(MAGIC)?;
    let version = r.u32()?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let n = r.count_u32(MIN_PARAM_LEN)?;
    let mut params = Vec::with_capacity(n);
    for _ in 0..n {
        let name_len = r.u32()? as usize;
        let name = r.string(name_len)?;
        let sparse = r.bool()?;
        let rows = r.u32()? as usize;
        let cols = r.u32()? as usize;
        let len = rows.checked_mul(cols).ok_or(SnapshotError::Truncated)?;
        let value = Mat::from_vec(rows, cols, r.f32s(len)?);
        let m = Mat::from_vec(rows, cols, r.f32s(len)?);
        let v = Mat::from_vec(rows, cols, r.f32s(len)?);
        params.push(RawParam {
            name,
            sparse,
            value,
            m,
            v,
        });
    }
    Ok(params)
}

/// Reconstruct a standalone store from a snapshot.
pub fn load_store(bytes: &[u8]) -> Result<ParamStore, SnapshotError> {
    let mut store = ParamStore::new();
    for raw in parse(bytes)? {
        let pid = if raw.sparse {
            store.add_sparse(raw.name, raw.value)
        } else {
            store.add(raw.name, raw.value)
        };
        let p = store.param_mut(pid);
        p.m = raw.m;
        p.v = raw.v;
    }
    Ok(store)
}

/// Load a snapshot into an architecture-matched store: every parameter's
/// name, shape and sparsity must match, in order. This is the safe path
/// for model `load` methods — build the architecture from its config,
/// then rehydrate the weights.
pub fn load_into(store: &mut ParamStore, bytes: &[u8]) -> Result<(), SnapshotError> {
    let params = parse(bytes)?;
    if params.len() != store.len() {
        return Err(SnapshotError::Mismatch(format!(
            "snapshot has {} params, architecture has {}",
            params.len(),
            store.len()
        )));
    }
    // validate everything before mutating anything
    for (raw, (_, p)) in params.iter().zip(store.iter()) {
        if raw.name != p.name {
            return Err(SnapshotError::Mismatch(format!(
                "expected param {:?}, snapshot has {:?}",
                p.name, raw.name
            )));
        }
        if raw.value.shape() != p.value.shape() {
            return Err(SnapshotError::Mismatch(format!(
                "{}: shape {:?} vs snapshot {:?}",
                p.name,
                p.value.shape(),
                raw.value.shape()
            )));
        }
        if raw.sparse != p.sparse {
            return Err(SnapshotError::Mismatch(format!(
                "{}: sparsity flag differs",
                p.name
            )));
        }
    }
    let pids: Vec<_> = store.iter().map(|(pid, _)| pid).collect();
    for (raw, pid) in params.into_iter().zip(pids) {
        let p = store.param_mut(pid);
        p.value = raw.value;
        p.m = raw.m;
        p.v = raw.v;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> ParamStore {
        let mut s = ParamStore::new();
        let w = s.add("w", Mat::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]));
        s.add_sparse("emb", Mat::from_vec(3, 2, vec![0.1; 6]));
        // dirty the moments so the roundtrip is non-trivial
        s.param_mut(w).m = Mat::filled(2, 3, 0.5);
        s.param_mut(w).v = Mat::filled(2, 3, 0.25);
        s
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let store = sample_store();
        let bytes = save_store(&store);
        let loaded = load_store(&bytes).unwrap();
        assert_eq!(loaded.len(), store.len());
        for ((_, a), (_, b)) in loaded.iter().zip(store.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.sparse, b.sparse);
            assert_eq!(a.value, b.value);
            assert_eq!(a.m, b.m);
            assert_eq!(a.v, b.v);
        }
    }

    #[test]
    fn load_into_rehydrates_matching_architecture() {
        let trained = sample_store();
        let bytes = save_store(&trained);
        // a freshly-initialized twin (zeros)
        let mut fresh = ParamStore::new();
        fresh.add("w", Mat::zeros(2, 3));
        fresh.add_sparse("emb", Mat::zeros(3, 2));
        load_into(&mut fresh, &bytes).unwrap();
        assert_eq!(fresh.value(crate::store::ParamId(0)).row(0), &[1., 2., 3.]);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(
            load_store(b"NOPE....").unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn truncation_detected() {
        let bytes = save_store(&sample_store());
        for cut in [3, 10, bytes.len() - 1] {
            match load_store(&bytes[..cut]) {
                Err(SnapshotError::Truncated) | Err(SnapshotError::BadMagic) => {}
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn shape_mismatch_rejected_without_mutation() {
        let bytes = save_store(&sample_store());
        let mut wrong = ParamStore::new();
        wrong.add("w", Mat::zeros(3, 3)); // wrong shape
        wrong.add_sparse("emb", Mat::zeros(3, 2));
        let err = load_into(&mut wrong, &bytes).unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch(_)));
        // untouched
        assert!(wrong
            .value(crate::store::ParamId(0))
            .data()
            .iter()
            .all(|&x| x == 0.0));
    }

    #[test]
    fn name_mismatch_rejected() {
        let bytes = save_store(&sample_store());
        let mut wrong = ParamStore::new();
        wrong.add("not_w", Mat::zeros(2, 3));
        wrong.add_sparse("emb", Mat::zeros(3, 2));
        assert!(matches!(
            load_into(&mut wrong, &bytes),
            Err(SnapshotError::Mismatch(_))
        ));
    }

    #[test]
    fn count_mismatch_rejected() {
        let bytes = save_store(&sample_store());
        let mut wrong = ParamStore::new();
        wrong.add("w", Mat::zeros(2, 3));
        assert!(matches!(
            load_into(&mut wrong, &bytes),
            Err(SnapshotError::Mismatch(_))
        ));
    }

    #[test]
    fn version_gate() {
        let mut bytes = save_store(&sample_store());
        bytes[4] = 99; // bump version field
        assert_eq!(
            load_store(&bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion(99)
        );
    }

    /// Regression: both headers used to reach an allocation sized from
    /// the raw field (a 652 GB `with_capacity`; `rows * cols * 4`
    /// wrapping to 0 → `capacity overflow`) instead of failing typed.
    #[test]
    fn oversized_counts_are_truncated_not_allocated() {
        let mut many_params = b"SCCF".to_vec();
        put_u32(&mut many_params, VERSION);
        put_u32(&mut many_params, u32::MAX);
        assert_eq!(
            load_store(&many_params).unwrap_err(),
            SnapshotError::Truncated
        );

        let mut wrapped_shape = b"SCCF".to_vec();
        put_u32(&mut wrapped_shape, VERSION);
        put_u32(&mut wrapped_shape, 1);
        put_u32(&mut wrapped_shape, 0); // empty name
        put_u8(&mut wrapped_shape, 0);
        put_u32(&mut wrapped_shape, 1 << 31);
        put_u32(&mut wrapped_shape, 1 << 31);
        assert_eq!(
            load_store(&wrapped_shape).unwrap_err(),
            SnapshotError::Truncated
        );
    }
}
