//! CLI entry point for `aalwinesd`: bind a Unix socket, optionally
//! preload a dataplane (or restore one from the write-ahead journal),
//! and serve the NDJSON protocol until `shutdown`.

use aalwines::telemetry::JsonObject;
use aalwinesd::{Daemon, DaemonConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> String {
    format!(
        "\
aalwinesd — resident what-if verification service (NDJSON over a Unix socket)

USAGE:
    aalwinesd --socket PATH [--demo | --topology T.xml --routing R.xml]
              [--locations L.json] [--repair] [--threads N] [--cache-size N]
              [--journal PATH] [--max-clients N] [--max-frame-bytes N]
              [--read-timeout-ms N] [--max-resident-bytes N]

OPTIONS:
    --socket PATH            Unix domain socket to listen on
    --demo                   preload the paper's example network
    --topology PATH          preload: topology XML
    --routing PATH           preload: routing XML
    --locations PATH         preload: optional router-coordinate JSON
    --repair                 drop ill-formed rules while preloading
    --threads N              worker threads for batch requests (default 1)
    --cache-size N           answer-cache capacity in entries (default {}, 0 = off)
    --journal PATH           write-ahead journal: replay it at startup, then
                             record every load/delta/subscribe for crash safety
    --max-clients N          concurrent-connection cap; extra connections get
                             a 'busy' envelope (default 64)
    --max-frame-bytes N      request-frame size cap (default 262144)
    --read-timeout-ms N      stalled-frame deadline; idle connections are
                             never timed out (default 10000)
    --max-resident-bytes N   resident-memory budget: past it, cache entries
                             are shed LRU-first, then new subscriptions are
                             refused (default 0 = unbounded)
    --debug-verbs            enable test-only verbs (debug-panic); never use
                             in production
",
        aalwines::DEFAULT_CACHE_SIZE
    )
}

struct Args {
    socket: Option<PathBuf>,
    demo: bool,
    topology: Option<String>,
    routing: Option<String>,
    locations: Option<String>,
    repair: bool,
    threads: usize,
    cache_size: usize,
    journal: Option<PathBuf>,
    max_clients: usize,
    max_frame_bytes: usize,
    read_timeout_ms: u64,
    max_resident_bytes: usize,
    debug_verbs: bool,
}

fn parse_args() -> Result<Args, String> {
    let defaults = DaemonConfig::default();
    let mut args = Args {
        socket: None,
        demo: false,
        topology: None,
        routing: None,
        locations: None,
        repair: false,
        threads: 1,
        cache_size: aalwines::DEFAULT_CACHE_SIZE,
        journal: None,
        max_clients: defaults.max_clients,
        max_frame_bytes: defaults.max_frame_bytes,
        read_timeout_ms: defaults.read_timeout.as_millis() as u64,
        max_resident_bytes: 0,
        debug_verbs: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        let parsed = |name: &str, v: String| -> Result<usize, String> {
            v.parse().map_err(|e| format!("{name}: {e}"))
        };
        match arg.as_str() {
            "--socket" => args.socket = Some(PathBuf::from(value("--socket")?)),
            "--demo" => args.demo = true,
            "--topology" => args.topology = Some(value("--topology")?),
            "--routing" => args.routing = Some(value("--routing")?),
            "--locations" => args.locations = Some(value("--locations")?),
            "--repair" => args.repair = true,
            "--threads" => args.threads = parsed("--threads", value("--threads")?)?,
            "--cache-size" => args.cache_size = parsed("--cache-size", value("--cache-size")?)?,
            "--journal" => args.journal = Some(PathBuf::from(value("--journal")?)),
            "--max-clients" => args.max_clients = parsed("--max-clients", value("--max-clients")?)?,
            "--max-frame-bytes" => {
                args.max_frame_bytes = parsed("--max-frame-bytes", value("--max-frame-bytes")?)?
            }
            "--read-timeout-ms" => {
                args.read_timeout_ms =
                    parsed("--read-timeout-ms", value("--read-timeout-ms")?)? as u64
            }
            "--max-resident-bytes" => {
                args.max_resident_bytes =
                    parsed("--max-resident-bytes", value("--max-resident-bytes")?)?
            }
            "--debug-verbs" => args.debug_verbs = true,
            "--help" | "-h" => {
                print!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

impl Args {
    fn config(&self) -> DaemonConfig {
        DaemonConfig {
            threads: self.threads,
            cache_size: self.cache_size,
            max_clients: self.max_clients,
            max_frame_bytes: self.max_frame_bytes,
            read_timeout: Duration::from_millis(self.read_timeout_ms),
            max_resident_bytes: self.max_resident_bytes,
            debug_verbs: self.debug_verbs,
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let Some(socket) = args.socket.clone() else {
        eprintln!("error: --socket is required\n\n{}", usage());
        return ExitCode::FAILURE;
    };
    let daemon = match &args.journal {
        Some(journal) => match Daemon::with_journal(args.config(), journal) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("error: journal {}: {e}", journal.display());
                return ExitCode::FAILURE;
            }
        },
        None => Daemon::new(args.config()),
    };
    if daemon.is_loaded() {
        // The journal replay already reconstructed a session (including
        // any preload recorded by an earlier run); preloading again
        // would discard the replayed deltas and watches.
        let status = daemon.replay_status();
        eprintln!(
            "aalwinesd: restored session from journal ({} records{})",
            status.records,
            if status.clean {
                ", clean replay"
            } else {
                ", UNCLEAN replay — see the health verb"
            }
        );
    } else if args.demo {
        daemon.preload_with_spec(aalwines::examples::paper_network(), Some("{\"demo\":true}"));
        eprintln!("aalwinesd: preloaded demo network");
    } else if let (Some(topo), Some(routes)) = (&args.topology, &args.routing) {
        let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        let loaded = (|| {
            let topo_xml = read(topo)?;
            let routes_xml = read(routes)?;
            let locations = match &args.locations {
                Some(p) => Some(read(p)?),
                None => None,
            };
            aalwines_suite::load_dataplane(
                &topo_xml,
                &routes_xml,
                locations.as_deref(),
                args.repair,
            )
            .map_err(|e| e.to_string())
        })();
        match loaded {
            Ok(net) => {
                let mut spec = JsonObject::new();
                spec.string("topology", topo);
                spec.string("routing", routes);
                if let Some(l) = &args.locations {
                    spec.string("locations", l);
                }
                if args.repair {
                    spec.boolean("repair", true);
                }
                daemon.preload_with_spec(net, Some(&spec.finish()));
                eprintln!("aalwinesd: preloaded dataplane");
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!("aalwinesd: listening on {}", socket.display());
    match daemon.serve(&socket) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
