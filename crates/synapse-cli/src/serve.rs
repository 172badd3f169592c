//! `serve` and `cluster start`: the long-lived campaign server, plain
//! or as a cluster coordinator.

use std::io::Write;
use std::sync::Arc;

use crate::{args, default_campaign_cache, CliError, Invocation, DEFAULT_SERVER_ADDR};

/// Parse the shared `serve`/`cluster start` flag set; `cluster`
/// additionally accepts repeatable `--worker ADDR` registrations.
pub(crate) fn parse(argv: &[String], cluster: bool) -> Result<Invocation, String> {
    let mut addr = DEFAULT_SERVER_ADDR.to_string();
    let mut cache = default_campaign_cache();
    let mut queue_workers = 2usize;
    let mut workers = 0usize;
    let mut max_connections = synapse_server::DEFAULT_MAX_CONNECTIONS;
    let mut reactor_threads = 0usize;
    let mut worker_addrs: Vec<String> = Vec::new();
    let what = if cluster { "cluster start" } else { "serve" };
    args::walk(argv, None, |arg, args| {
        match arg {
            "--addr" => addr = args.value()?,
            "--cache" => cache = args.value()?.into(),
            "--queue-workers" => queue_workers = args.parse()?,
            "--workers" => workers = args.parse()?,
            "--max-connections" => max_connections = args.parse()?,
            "--reactor-threads" => reactor_threads = args.parse()?,
            "--worker" if cluster => worker_addrs.push(args.value()?),
            _ => return Err(format!("unknown {what} argument {arg:?}")),
        }
        Ok(())
    })?;
    if queue_workers == 0 {
        return Err("--queue-workers must be at least 1".into());
    }
    Ok(Invocation::Serve {
        addr,
        cache,
        queue_workers,
        workers,
        max_connections,
        reactor_threads,
        coordinator: cluster.then_some(worker_addrs),
    })
}

/// Run the server until it is shut down.
pub(crate) fn run(invocation: Invocation, out: &mut impl Write) -> Result<(), CliError> {
    let Invocation::Serve {
        addr,
        cache,
        queue_workers,
        workers,
        max_connections,
        reactor_threads,
        coordinator,
    } = invocation
    else {
        unreachable!("not a serve invocation: {invocation:?}");
    };
    let config = synapse_server::ServerConfig {
        addr,
        cache_dir: Some(cache.clone()),
        queue_workers,
        job_workers: workers,
        max_connections,
        handler_threads: reactor_threads,
        ..Default::default()
    };
    let mut server = synapse_server::Server::bind(config)?;
    let (role, detail) = match &coordinator {
        Some(worker_addrs) => {
            let coordinator = Arc::new(synapse_cluster::Coordinator::new(
                synapse_cluster::ClusterConfig::default(),
            ));
            for worker in worker_addrs {
                coordinator.registry().register(worker);
            }
            server = server.with_cluster(coordinator);
            (
                "synapse cluster coordinator",
                format!("{} workers registered", worker_addrs.len()),
            )
        }
        None => ("synapse serve", format!("{queue_workers} queue workers")),
    };
    let bound = server.local_addr()?;
    writeln!(
        out,
        "{role} listening on {bound} (cache {}, {detail})",
        cache.display(),
    )?;
    out.flush()?;
    server.run()?;
    writeln!(out, "{role} shut down")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_args;
    use crate::tests::argv;
    use std::path::PathBuf;

    #[test]
    fn parses_serve_commands() {
        assert_eq!(
            parse_args(&argv(&["serve"])).unwrap(),
            Invocation::Serve {
                addr: DEFAULT_SERVER_ADDR.into(),
                cache: default_campaign_cache(),
                queue_workers: 2,
                workers: 0,
                max_connections: synapse_server::DEFAULT_MAX_CONNECTIONS,
                reactor_threads: 0,
                coordinator: None,
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "serve",
                "--addr",
                "127.0.0.1:9999",
                "--cache",
                "/tmp/srv",
                "--queue-workers",
                "4",
                "--workers",
                "2",
                "--max-connections",
                "64",
                "--reactor-threads",
                "8",
            ]))
            .unwrap(),
            Invocation::Serve {
                addr: "127.0.0.1:9999".into(),
                cache: PathBuf::from("/tmp/srv"),
                queue_workers: 4,
                workers: 2,
                max_connections: 64,
                reactor_threads: 8,
                coordinator: None,
            }
        );
        assert!(parse_args(&argv(&["serve", "--queue-workers", "0"])).is_err());
        assert!(parse_args(&argv(&["serve", "--bogus"])).is_err());
        assert!(parse_args(&argv(&["serve", "--reactor-threads", "lots"])).is_err());
        assert!(parse_args(&argv(&["serve", "--worker", "127.0.0.1:9001"])).is_err());
    }
}
