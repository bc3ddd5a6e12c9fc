//! `sccf` — command-line front end for the whole workspace.
//!
//! ```text
//! sccf gen        --dataset ml1m-sim --out data.tsv [--scale quick|full] [--seed N]
//! sccf train      --data data.tsv --model fism|sasrec|gru4rec|caser|avgpool
//!                 --out model.sccf [--dim D] [--epochs E] [--seed N]
//! sccf eval       --data data.tsv --model model.sccf [--sccf] [--beta B] [--ks 20,50,100]
//! sccf recommend  --data data.tsv --model model.sccf --user U [-n N] [--sccf]
//! sccf serve-shard --base B --count C --total T --model-file FILE [--port P] ...
//! sccf route      [--procs P] [--shards-per-proc S] [--events N] ...
//! ```
//!
//! `serve-shard` and `route` are the networked-fleet roles (see
//! `sccf::net`): `serve-shard` hosts one window of the global shard
//! space behind a TCP listener, `route` launches and supervises a
//! whole loopback fleet and drives it through the fleet router.
//!
//! The model file is `sccf::models::envelope` (`SCCFMDL2`), the format
//! `serve-shard --model-file` reads too: a header (kind, dimension,
//! sequence cap, catalog size, seed) ahead of the parameter snapshot and
//! a trailing CRC-32, so `eval` and `recommend` rebuild the exact
//! architecture without re-supplying hyper-parameters.

use std::path::PathBuf;
use std::process::exit;

use sccf::core::{Sccf, SccfConfig, UserBasedConfig};
use sccf::data::catalog::{all_benchmarks, taobao_sim, Scale};
use sccf::data::loader::load_tsv;
use sccf::data::synthetic::generate;
use sccf::data::writer::write_tsv;
use sccf::data::{Dataset, LeaveOneOut};
use sccf::eval::{evaluate, EvalTarget};
use sccf::models::{AnyModel, Envelope, ModelHeader, ModelKind, Recommender};
use sccf::util::Flags;

// ------------------------------------------------------------- arg plumbing

fn usage() -> ! {
    eprintln!(
        "usage:\n  sccf gen --dataset <name> --out FILE [--scale quick|full] [--seed N]\n  \
         sccf train --data FILE --model fism|sasrec|gru4rec|caser|avgpool --out FILE\n        \
         [--dim D] [--epochs E] [--max-len L] [--seed N]\n  \
         sccf eval --data FILE --model FILE [--sccf true] [--beta B] [--ks 20,50,100]\n  \
         sccf recommend --data FILE --model FILE --user U [--n N] [--sccf true]\n  \
         sccf serve-shard --base B --count C --total T --model-file FILE\n        \
         [--vnodes V] [--port P] [--dir DIR] [--world-* ...]\n  \
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
    let header = ModelHeader {
        kind,
        dim,
        max_len,
        n_items: split.n_items(),
        seed,
    };
    eprintln!("training {kind:?} (d={dim}, {epochs} epochs) ...");
    let weights = header.train(epochs, &split).save_bytes();
    let bytes = Envelope {
        header,
        weights: &weights,
    }
    .encode();
    std::fs::write(&out, &bytes).map_err(|e| e.to_string())?;
    println!(
        "saved {kind:?} ({} KiB) → {}",
        bytes.len() / 1024,
        out.display()
    );
    Ok(())
}

fn load_model(flags: &Flags) -> Result<AnyModel, String> {
    let path = flags.required("model")?;
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    Envelope::decode(&bytes)
        .and_then(|env| env.load())
        .map_err(|e| e.to_string())
}

fn cmd_eval(flags: &Flags) -> Result<(), String> {
    let data = load_dataset(flags)?;
    let split = LeaveOneOut::split(&data);
    let model = load_model(flags)?;
    if model.n_items() != split.n_items() {
        return Err(format!(
            "model was trained on {} items, dataset has {}",
            model.n_items(),
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

    let name = model.name();
    if wrap_sccf {
        let mut sccf = Sccf::build(
            model,
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
        let res = evaluate(&model, &split, EvalTarget::Test, &ks, 4, &name, "cli");
        print_metrics(&res, &ks);
    }
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
    let model = load_model(flags)?;
    if model.n_items() != split.n_items() {
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

    if wrap_sccf {
        let mut sccf = Sccf::build(model, &split, SccfConfig::default());
        sccf.refresh_for_test(&split);
        for (rank, s) in sccf.recommend(user, &history, n).iter().enumerate() {
            println!("{:>3}. item {:<6} score {:.4}", rank + 1, s.id, s.score);
        }
    } else {
        let mut scores = model.score_all(user, &history);
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
