//! `sccf` — command-line front end for the whole workspace.
//!
//! ```text
//! sccf gen        --dataset ml1m-sim --out data.tsv [--scale quick|full] [--seed N]
//! sccf train      --data data.tsv --model fism|sasrec|gru4rec|caser|avgpool
//!                 --out model.sccf [--dim D] [--epochs E] [--seed N]
//! sccf eval       --data data.tsv --model model.sccf [--sccf] [--beta B] [--ks 20,50,100]
//! sccf recommend  --data data.tsv --model model.sccf --user U [-n N] [--sccf]
//! sccf serve-shard --base B --count C --total T [--port P] [--dir DIR] ...
//! sccf route      [--procs P] [--shards-per-proc S] [--events N] ...
//! ```
//!
//! `serve-shard` and `route` are the networked-fleet roles (see
//! `sccf::net`): `serve-shard` hosts one window of the global shard
//! space behind a TCP listener, `route` launches and supervises a
//! whole loopback fleet and drives it through the fleet router.
//!
//! The model file is self-describing: a small envelope (kind, dimension,
//! sequence cap, catalog size) ahead of the parameter snapshot, so `eval`
//! and `recommend` rebuild the exact architecture without re-supplying
//! hyper-parameters.

use std::path::PathBuf;
use std::process::exit;

use sccf::core::{Sccf, SccfConfig, UserBasedConfig};
use sccf::data::catalog::{all_benchmarks, taobao_sim, Scale};
use sccf::data::loader::load_tsv;
use sccf::data::synthetic::generate;
use sccf::data::writer::write_tsv;
use sccf::data::{Dataset, LeaveOneOut};
use sccf::eval::{evaluate, EvalTarget};
use sccf::models::{
    AvgPoolConfig, AvgPoolDnn, Caser, CaserConfig, Fism, FismConfig, Gru4Rec, Gru4RecConfig,
    InductiveUiModel, Recommender, SasRec, SasRecConfig, TrainConfig,
};
use sccf::util::codec::{put_u32, put_u64, put_u8, DecodeError, Reader};
use sccf::util::Flags;

const ENVELOPE_MAGIC: &[u8; 8] = b"SCCFMDL1";

/// Model kinds the CLI can train and reload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModelKind {
    Fism,
    SasRec,
    Gru4Rec,
    Caser,
    AvgPool,
}

impl ModelKind {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "fism" => Some(Self::Fism),
            "sasrec" => Some(Self::SasRec),
            "gru4rec" => Some(Self::Gru4Rec),
            "caser" => Some(Self::Caser),
            "avgpool" => Some(Self::AvgPool),
            _ => None,
        }
    }

    fn tag(self) -> u8 {
        match self {
            Self::Fism => 0,
            Self::SasRec => 1,
            Self::Gru4Rec => 2,
            Self::Caser => 3,
            Self::AvgPool => 4,
        }
    }

    fn from_tag(t: u8) -> Option<Self> {
        match t {
            0 => Some(Self::Fism),
            1 => Some(Self::SasRec),
            2 => Some(Self::Gru4Rec),
            3 => Some(Self::Caser),
            4 => Some(Self::AvgPool),
            _ => None,
        }
    }
}

/// Everything needed to rebuild a trained model from its file.
struct Envelope {
    kind: ModelKind,
    dim: u32,
    max_len: u32,
    n_items: u32,
    seed: u64,
    weights: Vec<u8>,
}

impl Envelope {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.weights.len());
        out.extend_from_slice(ENVELOPE_MAGIC);
        put_u8(&mut out, self.kind.tag());
        put_u32(&mut out, self.dim);
        put_u32(&mut out, self.max_len);
        put_u32(&mut out, self.n_items);
        put_u64(&mut out, self.seed);
        out.extend_from_slice(&self.weights);
        out
    }

    fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(bytes);
        let mut header = || {
            r.magic(ENVELOPE_MAGIC)?;
            Ok::<_, DecodeError>((r.u8()?, r.u32()?, r.u32()?, r.u32()?, r.u64()?))
        };
        let (tag, dim, max_len, n_items, seed) = header().map_err(|_| "not an sccf model file")?;
        Ok(Self {
            kind: ModelKind::from_tag(tag).ok_or("unknown model kind")?,
            dim,
            max_len,
            n_items,
            seed,
            weights: r.rest().to_vec(),
        })
    }
}

/// A reloaded model behind one dispatchable type.
enum AnyModel {
    Fism(Fism),
    SasRec(SasRec),
    Gru4Rec(Gru4Rec),
    Caser(Caser),
    AvgPool(AvgPoolDnn),
}

impl AnyModel {
    fn load(env: &Envelope) -> Result<Self, String> {
        let n_items = env.n_items as usize;
        let tc = TrainConfig {
            dim: env.dim as usize,
            seed: env.seed,
            ..Default::default()
        };
        let fail = |e: sccf::tensor::SnapshotError| format!("weights do not match: {e:?}");
        Ok(match env.kind {
            ModelKind::Fism => AnyModel::Fism(
                Fism::load_bytes(
                    n_items,
                    &FismConfig {
                        train: tc,
                        ..Default::default()
                    },
                    &env.weights,
                )
                .map_err(fail)?,
            ),
            ModelKind::SasRec => AnyModel::SasRec(
                SasRec::load_bytes(
                    n_items,
                    &SasRecConfig {
                        train: tc,
                        max_len: env.max_len as usize,
                        ..Default::default()
                    },
                    &env.weights,
                )
                .map_err(fail)?,
            ),
            ModelKind::Gru4Rec => AnyModel::Gru4Rec(
                Gru4Rec::load_bytes(
                    n_items,
                    &Gru4RecConfig {
                        train: tc,
                        max_len: env.max_len as usize,
                    },
                    &env.weights,
                )
                .map_err(fail)?,
            ),
            ModelKind::Caser => AnyModel::Caser(
                Caser::load_bytes(
                    n_items,
                    &CaserConfig {
                        train: tc,
                        ..Default::default()
                    },
                    &env.weights,
                )
                .map_err(fail)?,
            ),
            ModelKind::AvgPool => AnyModel::AvgPool(
                AvgPoolDnn::load_bytes(
                    n_items,
                    &AvgPoolConfig {
                        train: tc,
                        ..Default::default()
                    },
                    &env.weights,
                )
                .map_err(fail)?,
            ),
        })
    }

    /// Run `f` with the concrete inductive model.
    fn with<R>(self, f: impl FnOnce(Box<dyn DynInductive>) -> R) -> R {
        match self {
            AnyModel::Fism(m) => f(Box::new(m)),
            AnyModel::SasRec(m) => f(Box::new(m)),
            AnyModel::Gru4Rec(m) => f(Box::new(m)),
            AnyModel::Caser(m) => f(Box::new(m)),
            AnyModel::AvgPool(m) => f(Box::new(m)),
        }
    }
}

/// Object-safe alias so one code path serves every backend.
trait DynInductive: InductiveUiModel {}
impl<T: InductiveUiModel> DynInductive for T {}

impl Recommender for Box<dyn DynInductive> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn n_items(&self) -> usize {
        (**self).n_items()
    }
    fn score_all(&self, user: u32, history: &[u32]) -> Vec<f32> {
        (**self).score_all(user, history)
    }
}

impl InductiveUiModel for Box<dyn DynInductive> {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn infer_user(&self, history: &[u32]) -> Vec<f32> {
        (**self).infer_user(history)
    }
    fn item_embeddings(&self) -> &sccf::tensor::Mat {
        (**self).item_embeddings()
    }
}

// ------------------------------------------------------------- arg plumbing

fn usage() -> ! {
    eprintln!(
        "usage:\n  sccf gen --dataset <name> --out FILE [--scale quick|full] [--seed N]\n  \
         sccf train --data FILE --model fism|sasrec|gru4rec|caser|avgpool --out FILE\n        \
         [--dim D] [--epochs E] [--max-len L] [--seed N]\n  \
         sccf eval --data FILE --model FILE [--sccf true] [--beta B] [--ks 20,50,100]\n  \
         sccf recommend --data FILE --model FILE --user U [--n N] [--sccf true]\n  \
         sccf serve-shard --base B --count C --total T [--vnodes V] [--port P]\n        \
         [--dir DIR] [--model-file FILE] [--world-* ...]\n  \
         sccf route [--procs P] [--shards-per-proc S] [--vnodes V] [--events N]\n        \
         [--dir DIR] [--world-* ...]\n\n\
         datasets: ml1m-sim ml20m-sim games-sim beauty-sim taobao-sim"
    );
    exit(2)
}

fn load_dataset(flags: &Flags) -> Result<Dataset, String> {
    let path = flags.required("data")?;
    load_tsv("cli", path).map_err(|e| format!("loading {path}: {e}"))
}

// ------------------------------------------------------------- subcommands

fn cmd_gen(flags: &Flags) -> Result<(), String> {
    let name = flags.required("dataset")?;
    let out = PathBuf::from(flags.required("out")?);
    let scale = match flags.get("scale").unwrap_or("quick") {
        "quick" => Scale::Quick,
        "full" => Scale::Full,
        other => return Err(format!("unknown scale `{other}`")),
    };
    let seed: u64 = flags.parsed("seed", 42)?;
    flags.finish()?;
    let cfg = all_benchmarks(scale)
        .into_iter()
        .chain(std::iter::once(taobao_sim(scale)))
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown dataset `{name}`"))?;
    let data = generate(&cfg, seed).dataset;
    let stats = data.stats();
    write_tsv(&data, &out).map_err(|e| e.to_string())?;
    println!(
        "wrote {}: {} users × {} items, {} actions → {}",
        name,
        stats.n_users,
        stats.n_items,
        stats.n_actions,
        out.display()
    );
    Ok(())
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    let data = load_dataset(flags)?;
    let split = LeaveOneOut::split(&data);
    let kind = ModelKind::parse(flags.required("model")?)
        .ok_or("unknown model (fism|sasrec|gru4rec|caser|avgpool)")?;
    let out = PathBuf::from(flags.required("out")?);
    let dim: usize = flags.parsed("dim", 32)?;
    let epochs: usize = flags.parsed("epochs", 10)?;
    let max_len: usize = flags.parsed("max-len", 50)?;
    let seed: u64 = flags.parsed("seed", 42)?;
    flags.finish()?;
    let tc = TrainConfig {
        dim,
        epochs,
        seed,
        ..Default::default()
    };
    eprintln!("training {kind:?} (d={dim}, {epochs} epochs) ...");
    let weights = match kind {
        ModelKind::Fism => Fism::train(
            &split,
            &FismConfig {
                train: tc,
                ..Default::default()
            },
        )
        .save_bytes(),
        ModelKind::SasRec => SasRec::train(
            &split,
            &SasRecConfig {
                train: tc,
                max_len,
                ..Default::default()
            },
        )
        .save_bytes(),
        ModelKind::Gru4Rec => {
            Gru4Rec::train(&split, &Gru4RecConfig { train: tc, max_len }).save_bytes()
        }
        ModelKind::Caser => Caser::train(
            &split,
            &CaserConfig {
                train: tc,
                ..Default::default()
            },
        )
        .save_bytes(),
        ModelKind::AvgPool => AvgPoolDnn::train(
            &split,
            &AvgPoolConfig {
                train: tc,
                ..Default::default()
            },
        )
        .save_bytes(),
    };
    let env = Envelope {
        kind,
        dim: dim as u32,
        max_len: max_len as u32,
        n_items: split.n_items() as u32,
        seed,
        weights,
    };
    let bytes = env.encode();
    std::fs::write(&out, &bytes).map_err(|e| e.to_string())?;
    println!(
        "saved {kind:?} ({} KiB) → {}",
        bytes.len() / 1024,
        out.display()
    );
    Ok(())
}

fn load_model(flags: &Flags) -> Result<(Envelope, AnyModel), String> {
    let path = flags.required("model")?;
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let env = Envelope::decode(&bytes)?;
    let model = AnyModel::load(&env)?;
    Ok((env, model))
}

fn cmd_eval(flags: &Flags) -> Result<(), String> {
    let data = load_dataset(flags)?;
    let split = LeaveOneOut::split(&data);
    let (env, model) = load_model(flags)?;
    if env.n_items as usize != split.n_items() {
        return Err(format!(
            "model was trained on {} items, dataset has {}",
            env.n_items,
            split.n_items()
        ));
    }
    let ks: Vec<usize> = flags
        .get("ks")
        .unwrap_or("20,50,100")
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad k `{s}`")))
        .collect::<Result<_, _>>()?;
    let wrap_sccf: bool = flags.parsed("sccf", false)?;
    let beta: usize = flags.parsed("beta", 100)?;
    flags.finish()?;

    model.with(|m| {
        let name = m.name();
        if wrap_sccf {
            let mut sccf = Sccf::build(
                m,
                &split,
                SccfConfig {
                    user_based: UserBasedConfig {
                        beta,
                        recent_window: 15,
                    },
                    candidate_n: *ks.iter().max().unwrap_or(&100),
                    ..Default::default()
                },
            );
            sccf.refresh_for_test(&split);
            let res = evaluate(
                &sccf,
                &split,
                EvalTarget::Test,
                &ks,
                4,
                &format!("{name}-SCCF"),
                "cli",
            );
            print_metrics(&res, &ks);
        } else {
            let res = evaluate(&m, &split, EvalTarget::Test, &ks, 4, &name, "cli");
            print_metrics(&res, &ks);
        }
    });
    Ok(())
}

fn print_metrics(res: &sccf::eval::EvalResult, ks: &[usize]) {
    println!(
        "model: {} ({} test users)",
        res.model,
        res.metrics.n_users()
    );
    for &k in ks {
        println!(
            "  HR@{k:<4} {:.4}   NDCG@{k:<4} {:.4}",
            res.metrics.hr(k),
            res.metrics.ndcg(k)
        );
    }
}

fn cmd_recommend(flags: &Flags) -> Result<(), String> {
    let data = load_dataset(flags)?;
    let split = LeaveOneOut::split(&data);
    let (env, model) = load_model(flags)?;
    if env.n_items as usize != split.n_items() {
        return Err("model/dataset catalog mismatch".into());
    }
    let user: u32 = flags
        .required("user")?
        .parse()
        .map_err(|_| "bad --user".to_string())?;
    if user as usize >= split.n_users() {
        return Err(format!(
            "user {user} out of range (dataset has {})",
            split.n_users()
        ));
    }
    let n: usize = flags.parsed("n", 10)?;
    let wrap_sccf: bool = flags.parsed("sccf", false)?;
    flags.finish()?;
    let history = split.train_plus_val(user);

    model.with(|m| {
        if wrap_sccf {
            let mut sccf = Sccf::build(m, &split, SccfConfig::default());
            sccf.refresh_for_test(&split);
            for (rank, s) in sccf.recommend(user, &history, n).iter().enumerate() {
                println!("{:>3}. item {:<6} score {:.4}", rank + 1, s.id, s.score);
            }
        } else {
            let mut scores = m.score_all(user, &history);
            for &i in &history {
                scores[i as usize] = f32::NEG_INFINITY;
            }
            for (rank, s) in sccf::util::topk::topk_of_scores(&scores, n)
                .iter()
                .enumerate()
            {
                println!("{:>3}. item {:<6} score {:.4}", rank + 1, s.id, s.score);
            }
        }
    });
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    // The fleet subcommands own their argument parsing (world flags,
    // window flags) — dispatch them before the generic flag parser.
    match cmd.as_str() {
        "serve-shard" => {
            if let Err(e) = sccf::net::serve_shard_main(&args[1..]) {
                eprintln!("error: {e}");
                exit(1);
            }
            return;
        }
        "route" => {
            if let Err(e) = sccf::net::route_main(&args[1..]) {
                eprintln!("error: {e}");
                exit(1);
            }
            return;
        }
        _ => {}
    }
    let flags = match Flags::parse(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            usage()
        }
    };
    let result = match cmd.as_str() {
        "gen" => cmd_gen(&flags),
        "train" => cmd_train(&flags),
        "eval" => cmd_eval(&flags),
        "recommend" => cmd_recommend(&flags),
        _ => {
            eprintln!("error: unknown command `{cmd}`");
            usage()
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        exit(1);
    }
}
