//! The one model file, `SCCFMDL2`: what `sccf train` writes, what
//! `sccf eval` / `recommend` read, and what a fleet launcher hands every
//! `serve-shard` member.
//!
//! ```text
//! magic "SCCFMDL2" | u8 kind | u32 dim | u32 max_len | u32 n_items | u64 seed
//!                  | the model's `SCCF` parameter store
//!                  | u32 crc32(every byte before it)
//! ```
//!
//! The header rebuilds the architecture: training ([`ModelHeader::train`])
//! and loading ([`Envelope::load`]) take every kind's config from the
//! same mapping, so a reader needs no hyper-parameters of its own.
//! [`Envelope::decode`] checks, before anything is allocated: the magic
//! (a version-1 file is [`EnvelopeError::UnsupportedVersion`] — retrain
//! it), the trailing checksum (one flipped bit anywhere is
//! [`EnvelopeError::Checksum`]), and that every table the header sizes
//! fits in the weights the file carries — a hostile file carries a
//! valid checksum, so the CRC alone cannot keep a header from sizing an
//! allocation. The file is not one `sccf_util::framing` frame: a
//! 100 k-item d16 FISM with its Adam moments is 19.2 MB, over
//! `MAX_FRAME_LEN`.

use std::fmt;

use sccf_data::LeaveOneOut;
use sccf_tensor::{Mat, SnapshotError};
use sccf_util::codec::{put_u32, put_u64, put_u8, DecodeError, Reader};
use sccf_util::crc32;

use crate::{
    AvgPoolConfig, AvgPoolDnn, Caser, CaserConfig, Fism, FismConfig, Gru4Rec, Gru4RecConfig,
    InductiveUiModel, Recommender, SasRec, SasRecConfig, TrainConfig,
};

const MAGIC: &[u8; 8] = b"SCCFMDL2";
/// kind, dim, max_len, n_items, seed.
const HEADER_LEN: usize = 1 + 4 + 4 + 4 + 8;
const CRC_LEN: usize = 4;
/// Store bytes per parameter scalar: the value and two Adam moments.
const SCALAR_BYTES: usize = 12;

/// The inductive base models a model file carries; the discriminant is
/// the file's kind tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ModelKind {
    Fism = 0,
    SasRec = 1,
    Gru4Rec = 2,
    Caser = 3,
    AvgPool = 4,
}

/// Every kind with its command-line name, in tag order.
const KINDS: [(ModelKind, &str); 5] = [
    (ModelKind::Fism, "fism"),
    (ModelKind::SasRec, "sasrec"),
    (ModelKind::Gru4Rec, "gru4rec"),
    (ModelKind::Caser, "caser"),
    (ModelKind::AvgPool, "avgpool"),
];

impl ModelKind {
    /// The kind a command-line name (`fism`, `sasrec`, …) selects.
    pub fn parse(name: &str) -> Option<Self> {
        KINDS.iter().find(|(_, n)| *n == name).map(|&(k, _)| k)
    }

    fn from_tag(tag: u8) -> Option<Self> {
        KINDS.get(tag as usize).map(|&(k, _)| k)
    }
}

/// Everything that rebuilds a model's architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelHeader {
    pub kind: ModelKind,
    /// Embedding dimension.
    pub dim: usize,
    /// Sequence cap of SASRec and GRU4Rec; the other kinds ignore it.
    pub max_len: usize,
    /// Catalog size.
    pub n_items: usize,
    /// Initialisation and training seed.
    pub seed: u64,
}

/// One kind's architecture config.
enum KindConfig {
    Fism(FismConfig),
    SasRec(SasRecConfig),
    Gru4Rec(Gru4RecConfig),
    Caser(CaserConfig),
    AvgPool(AvgPoolConfig),
}

impl ModelHeader {
    /// The one per-kind config mapping, shared by training and loading
    /// so the two always build the same architecture. `epochs` only
    /// steers training.
    fn config(&self, epochs: usize) -> KindConfig {
        let train = TrainConfig {
            dim: self.dim,
            epochs,
            seed: self.seed,
            ..Default::default()
        };
        let max_len = self.max_len;
        match self.kind {
            ModelKind::Fism => KindConfig::Fism(FismConfig {
                train,
                ..Default::default()
            }),
            ModelKind::SasRec => KindConfig::SasRec(SasRecConfig {
                train,
                max_len,
                ..Default::default()
            }),
            ModelKind::Gru4Rec => KindConfig::Gru4Rec(Gru4RecConfig { train, max_len }),
            ModelKind::Caser => KindConfig::Caser(CaserConfig {
                train,
                ..Default::default()
            }),
            ModelKind::AvgPool => KindConfig::AvgPool(AvgPoolConfig {
                train,
                ..Default::default()
            }),
        }
    }

    /// Train this header's model on `split`, whose catalog is `n_items`.
    pub fn train(&self, epochs: usize, split: &LeaveOneOut) -> AnyModel {
        assert_eq!(split.n_items(), self.n_items, "header catalog ≠ split");
        match self.config(epochs) {
            KindConfig::Fism(c) => AnyModel::Fism(Fism::train(split, &c)),
            KindConfig::SasRec(c) => AnyModel::SasRec(SasRec::train(split, &c)),
            KindConfig::Gru4Rec(c) => AnyModel::Gru4Rec(Gru4Rec::train(split, &c)),
            KindConfig::Caser(c) => AnyModel::Caser(Caser::train(split, &c)),
            KindConfig::AvgPool(c) => AnyModel::AvgPool(AvgPoolDnn::train(split, &c)),
        }
    }
}

/// A model of any [`ModelKind`]; it is itself an [`InductiveUiModel`],
/// forwarding every call to the concrete model.
pub enum AnyModel {
    Fism(Fism),
    SasRec(SasRec),
    Gru4Rec(Gru4Rec),
    Caser(Caser),
    AvgPool(AvgPoolDnn),
}

/// Run `$body` with `$m` bound to the concrete model inside `$model`.
macro_rules! each_kind {
    ($model:expr, $m:ident => $body:expr) => {
        match $model {
            AnyModel::Fism($m) => $body,
            AnyModel::SasRec($m) => $body,
            AnyModel::Gru4Rec($m) => $body,
            AnyModel::Caser($m) => $body,
            AnyModel::AvgPool($m) => $body,
        }
    };
}

impl AnyModel {
    /// The model's `SCCF` parameter store — the weights of its file.
    pub fn save_bytes(&self) -> Vec<u8> {
        each_kind!(self, m => m.save_bytes())
    }
}

impl Recommender for AnyModel {
    fn name(&self) -> String {
        each_kind!(self, m => m.name())
    }
    fn n_items(&self) -> usize {
        each_kind!(self, m => m.n_items())
    }
    fn score_all(&self, user: u32, history: &[u32]) -> Vec<f32> {
        each_kind!(self, m => m.score_all(user, history))
    }
}

impl InductiveUiModel for AnyModel {
    fn dim(&self) -> usize {
        each_kind!(self, m => m.dim())
    }
    fn infer_user(&self, history: &[u32]) -> Vec<f32> {
        each_kind!(self, m => m.infer_user(history))
    }
    fn item_embeddings(&self) -> &Mat {
        each_kind!(self, m => m.item_embeddings())
    }
}

/// Why a model file was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The file does not start with an `SCCFMDL` magic.
    NotAModelFile,
    /// An `SCCFMDL` file of another version (the ASCII digit ending its
    /// magic). There is no reader for version 1: retrain the model.
    UnsupportedVersion(u8),
    /// The file ends inside its header or checksum.
    Truncated,
    /// The trailing CRC-32 does not match the bytes before it.
    Checksum { stored: u32, computed: u32 },
    /// The header's kind tag names no [`ModelKind`].
    UnknownKind(u8),
    /// A table the header sizes (`rows × dim` scalars) cannot fit in the
    /// weights the file carries.
    Oversized {
        table: &'static str,
        rows: usize,
        dim: usize,
        weight_bytes: usize,
    },
    /// The weights do not load into the header's architecture.
    Weights(SnapshotError),
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotAModelFile => write!(f, "not an sccf model file"),
            Self::UnsupportedVersion(v) => write!(
                f,
                "sccf model file version {} is not supported (this build reads version 2): retrain the model",
                *v as char
            ),
            Self::Truncated => write!(f, "truncated sccf model file"),
            Self::Checksum { stored, computed } => write!(
                f,
                "sccf model file checksum mismatch (stored {stored:#010x}, computed {computed:#010x}): the file is damaged"
            ),
            Self::UnknownKind(tag) => write!(f, "unknown model kind tag {tag}"),
            Self::Oversized {
                table,
                rows,
                dim,
                weight_bytes,
            } => write!(
                f,
                "the header's {table} ({rows} rows × dim {dim}) does not fit in the {weight_bytes} weight bytes the file carries"
            ),
            Self::Weights(e) => write!(f, "weights do not match the header: {e}"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

impl From<DecodeError> for EnvelopeError {
    /// The header is fixed-width: the cursor can only run out.
    fn from(_: DecodeError) -> Self {
        Self::Truncated
    }
}

impl From<SnapshotError> for EnvelopeError {
    fn from(e: SnapshotError) -> Self {
        Self::Weights(e)
    }
}

/// A model file: its header and the weights it carries, not yet loaded.
pub struct Envelope<'a> {
    pub header: ModelHeader,
    /// The model's `SCCF` parameter store.
    pub weights: &'a [u8],
}

impl<'a> Envelope<'a> {
    pub fn encode(&self) -> Vec<u8> {
        let h = &self.header;
        let mut out = Vec::with_capacity(MAGIC.len() + HEADER_LEN + self.weights.len() + CRC_LEN);
        out.extend_from_slice(MAGIC);
        put_u8(&mut out, h.kind as u8);
        put_u32(&mut out, h.dim as u32);
        put_u32(&mut out, h.max_len as u32);
        put_u32(&mut out, h.n_items as u32);
        put_u64(&mut out, h.seed);
        out.extend_from_slice(self.weights);
        let crc = crc32(&out);
        put_u32(&mut out, crc);
        out
    }

    /// Check the magic, the checksum and the header's table sizes; the
    /// weights stay unread until [`Envelope::load`].
    pub fn decode(bytes: &'a [u8]) -> Result<Self, EnvelopeError> {
        if !bytes.starts_with(MAGIC) {
            return Err(match bytes.get(..MAGIC.len()) {
                Some(m) if m.starts_with(&MAGIC[..7]) => EnvelopeError::UnsupportedVersion(m[7]),
                _ => EnvelopeError::NotAModelFile,
            });
        }
        let body_len = bytes
            .len()
            .checked_sub(CRC_LEN)
            .filter(|&n| n >= MAGIC.len() + HEADER_LEN)
            .ok_or(EnvelopeError::Truncated)?;
        let (body, crc) = bytes.split_at(body_len);
        let (stored, computed) = (Reader::new(crc).u32()?, crc32(body));
        if stored != computed {
            return Err(EnvelopeError::Checksum { stored, computed });
        }
        let mut r = Reader::new(&body[MAGIC.len()..]);
        let tag = r.u8()?;
        let header = ModelHeader {
            kind: ModelKind::from_tag(tag).ok_or(EnvelopeError::UnknownKind(tag))?,
            dim: r.u32()? as usize,
            max_len: r.u32()? as usize,
            n_items: r.u32()? as usize,
            seed: r.u64()?,
        };
        let env = Envelope {
            header,
            weights: r.rest(),
        };
        env.check_tables()?;
        Ok(env)
    }

    /// Refuse a header that sizes a table the weights cannot hold. Every
    /// kind has an `n_items × dim` item table; SASRec a `max_len × dim`
    /// position table; SASRec, GRU4Rec and Caser at least one
    /// `dim × dim` layer; FISM and AvgPool at least one row of `dim`.
    fn check_tables(&self) -> Result<(), EnvelopeError> {
        let h = &self.header;
        let square = matches!(
            h.kind,
            ModelKind::SasRec | ModelKind::Gru4Rec | ModelKind::Caser
        );
        let tables = [
            ("catalog", h.n_items),
            (
                "sequence cap",
                if h.kind == ModelKind::SasRec {
                    h.max_len
                } else {
                    0
                },
            ),
            ("dimension", if square { h.dim } else { 1 }),
        ];
        let weight_bytes = self.weights.len();
        for (table, rows) in tables {
            let needed = rows
                .checked_mul(h.dim)
                .and_then(|n| n.checked_mul(SCALAR_BYTES));
            if needed.is_none_or(|n| n > weight_bytes) {
                return Err(EnvelopeError::Oversized {
                    table,
                    rows,
                    dim: h.dim,
                    weight_bytes,
                });
            }
        }
        Ok(())
    }

    /// Build the header's architecture and load the weights into it.
    pub fn load(&self) -> Result<AnyModel, EnvelopeError> {
        let (n, w) = (self.header.n_items, self.weights);
        Ok(match self.header.config(0) {
            KindConfig::Fism(c) => AnyModel::Fism(Fism::load_bytes(n, &c, w)?),
            KindConfig::SasRec(c) => AnyModel::SasRec(SasRec::load_bytes(n, &c, w)?),
            KindConfig::Gru4Rec(c) => AnyModel::Gru4Rec(Gru4Rec::load_bytes(n, &c, w)?),
            KindConfig::Caser(c) => AnyModel::Caser(Caser::load_bytes(n, &c, w)?),
            KindConfig::AvgPool(c) => AnyModel::AvgPool(AvgPoolDnn::load_bytes(n, &c, w)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sccf_data::catalog::{ml1m_sim, Scale};
    use sccf_data::synthetic::generate;

    fn split() -> LeaveOneOut {
        let mut cfg = ml1m_sim(Scale::Quick);
        cfg.n_users = 30;
        cfg.n_items = 20;
        LeaveOneOut::split(&generate(&cfg, 5).dataset)
    }

    /// Every kind survives its own file: same header, same scores, and
    /// the table check admits every real architecture.
    #[test]
    fn every_kind_roundtrips_through_its_file() {
        let split = split();
        for (kind, name) in KINDS {
            assert_eq!(ModelKind::parse(name), Some(kind));
            let header = ModelHeader {
                kind,
                dim: 8,
                max_len: 6,
                n_items: split.n_items(),
                seed: 3,
            };
            let trained = header.train(1, &split);
            let weights = trained.save_bytes();
            let file = Envelope {
                header,
                weights: &weights,
            }
            .encode();
            let env = Envelope::decode(&file).unwrap();
            assert_eq!(env.header, header);
            let loaded = env.load().unwrap();
            let history = split.train_plus_val(0);
            assert_eq!(
                loaded.score_all(0, &history),
                trained.score_all(0, &history),
                "{name}"
            );
        }
        assert_eq!(ModelKind::parse("bprmf"), None);
    }

    #[test]
    fn damaged_foreign_and_hostile_files_are_typed_errors() {
        let weights = vec![0u8; 64];
        let header = ModelHeader {
            kind: ModelKind::Fism,
            dim: 2,
            max_len: 0,
            n_items: 2,
            seed: 1,
        };
        let file = Envelope {
            header,
            weights: &weights,
        }
        .encode();
        let err = |bytes: &[u8]| Envelope::decode(bytes).err();
        assert_eq!(err(&file), None);
        assert_eq!(
            err(b"this is not a model"),
            Some(EnvelopeError::NotAModelFile)
        );
        let mut v1 = file.clone();
        v1[7] = b'1';
        assert_eq!(err(&v1), Some(EnvelopeError::UnsupportedVersion(b'1')));
        assert!(EnvelopeError::UnsupportedVersion(b'1')
            .to_string()
            .contains("version 1"));
        assert_eq!(err(&file[..20]), Some(EnvelopeError::Truncated));
        let mut flipped = file.clone();
        flipped[40] ^= 0x10;
        assert!(matches!(
            err(&flipped),
            Some(EnvelopeError::Checksum { .. })
        ));
        // A hostile header with a valid checksum is caught by size.
        for (table, hostile) in [
            (
                "catalog",
                ModelHeader {
                    n_items: 0xFFFF_FFF0,
                    dim: 4096,
                    ..header
                },
            ),
            (
                "dimension",
                ModelHeader {
                    n_items: 0,
                    dim: 1 << 30,
                    ..header
                },
            ),
            (
                "dimension",
                ModelHeader {
                    kind: ModelKind::SasRec,
                    dim: 8,
                    n_items: 0,
                    ..header
                },
            ),
            (
                "sequence cap",
                ModelHeader {
                    kind: ModelKind::SasRec,
                    dim: 1,
                    max_len: 99,
                    ..header
                },
            ),
        ] {
            let file = Envelope {
                header: hostile,
                weights: &weights,
            }
            .encode();
            match err(&file) {
                Some(EnvelopeError::Oversized { table: t, .. }) => assert_eq!(t, table),
                other => panic!("{hostile:?}: {other:?}"),
            }
        }
        let mut unknown = file[..file.len() - CRC_LEN].to_vec();
        unknown[8] = 9;
        let crc = crc32(&unknown);
        put_u32(&mut unknown, crc);
        assert_eq!(err(&unknown), Some(EnvelopeError::UnknownKind(9)));
        let garbage = Envelope::decode(&file).unwrap().load().err();
        assert!(matches!(garbage, Some(EnvelopeError::Weights(_))));
    }
}
