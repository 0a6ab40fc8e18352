//! `experiments <id> [--depth N] [--seed N]` prints one reproduced table or
//! figure to stdout (the shell does any redirect into `results/<id>.txt`);
//! `experiments list` prints one `id  golden|measured  what` line per
//! experiment. Anything else is `error:` + the ids on stderr, exit 2.

use tempart_bench::{ExpOptions, EXPERIMENTS};

fn fail(message: &str, hint: &str) -> ! {
    eprintln!("error: {message} ({hint})");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["list"] {
        for e in EXPERIMENTS {
            let kind = if e.golden { "golden" } else { "measured" };
            println!("{:<21} {kind:<9} {}", e.id, e.what);
        }
        return;
    }
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    let ids = format!("ids: list, {}", ids.join(", "));
    let Some(id) = args.first() else {
        fail("no experiment id", &ids)
    };
    let Some(experiment) = EXPERIMENTS.iter().find(|e| e.id == id) else {
        fail(&format!("unknown experiment {id:?}"), &ids)
    };
    let opts =
        ExpOptions::parse(&args[1..]).unwrap_or_else(|e| fail(&e, "options: --depth N, --seed N"));
    (experiment.run)(&opts);
}
